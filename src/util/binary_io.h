#ifndef CAUSALTAD_UTIL_BINARY_IO_H_
#define CAUSALTAD_UTIL_BINARY_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace causaltad {
namespace util {

/// Little-endian binary writer used for model checkpoints and cached corpora.
/// Format primitives: fixed-width ints/floats, length-prefixed strings and
/// vectors. All writers go through this class so checkpoints stay portable.
class BinaryWriter {
 public:
  /// Opens `path` for truncating binary write and emits `magic` + `version`.
  BinaryWriter(const std::string& path, uint32_t magic, uint32_t version);

  bool ok() const { return out_.good(); }

  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s);
  void WriteFloats(const std::vector<float>& v);
  void WriteInts(const std::vector<int32_t>& v);
  void WriteI64s(const std::vector<int64_t>& v);

  /// Flushes and reports any accumulated stream error.
  Status Close();

 private:
  void WriteRaw(const void* data, size_t n);

  std::ofstream out_;
  std::string path_;
};

/// Reader counterpart of BinaryWriter; validates magic and version on open.
/// Every read is bounded by the bytes left in the file: a short read, or a
/// length prefix larger than what remains, flips ok() before anything is
/// allocated, so a truncated or corrupted file cannot force a huge
/// allocation or an over-read.
class BinaryReader {
 public:
  BinaryReader(const std::string& path, uint32_t magic,
               uint32_t expected_version);

  /// Accepts any on-disk version in [min_version, max_version] — the opener
  /// for formats that keep reading their older revisions (checkpoints).
  /// Callers branch on version() for per-revision decoding.
  BinaryReader(const std::string& path, uint32_t magic, uint32_t min_version,
               uint32_t max_version);

  bool ok() const { return ok_; }
  const Status& status() const { return status_; }
  uint32_t version() const { return version_; }

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  std::vector<float> ReadFloats();
  std::vector<int32_t> ReadInts();
  std::vector<int64_t> ReadI64s();

 private:
  void ReadRaw(void* data, size_t n);
  void Fail(const std::string& msg);
  template <typename T>
  std::vector<T> ReadVector();

  std::ifstream in_;
  std::string path_;
  bool ok_ = false;
  uint32_t version_ = 0;
  uint64_t remaining_ = 0;
  Status status_;
};

/// In-memory little-endian writer appending to a caller-owned byte buffer.
/// The buffer twin of BinaryWriter, used where bytes go to a socket instead
/// of a file (the src/net/ wire frames). Containers carry u32 length
/// prefixes — wire messages are small and bounded, unlike checkpoints.
class BufferWriter {
 public:
  explicit BufferWriter(std::vector<uint8_t>* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(v); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

  /// u32 length prefix + raw bytes.
  void WriteString(const std::string& s);
  /// u32 count prefix + raw doubles.
  void WriteF64s(const std::vector<double>& v);

 private:
  void WriteRaw(const void* data, size_t n);

  std::vector<uint8_t>* out_;
};

/// Bounded in-memory reader over a byte span; the decode twin of
/// BufferWriter. Never reads past the end: the first short or malformed read
/// flips ok() and every later read returns a zero value, so frame decoding
/// over untrusted network bytes cannot over-read or crash.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32();
  double ReadF64();
  std::string ReadString();
  std::vector<double> ReadF64s();

 private:
  bool Take(void* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace util
}  // namespace causaltad

#endif  // CAUSALTAD_UTIL_BINARY_IO_H_
