#include "util/binary_io.h"

#include <cstring>

namespace causaltad {
namespace util {

BinaryWriter::BinaryWriter(const std::string& path, uint32_t magic,
                           uint32_t version)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (out_.good()) {
    WriteU32(magic);
    WriteU32(version);
  }
}

void BinaryWriter::WriteRaw(const void* data, size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteRaw(s.data(), s.size());
}

void BinaryWriter::WriteFloats(const std::vector<float>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::WriteInts(const std::vector<int32_t>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), v.size() * sizeof(int32_t));
}

void BinaryWriter::WriteI64s(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), v.size() * sizeof(int64_t));
}

Status BinaryWriter::Close() {
  out_.flush();
  if (!out_.good()) return Status::IoError("write failed for " + path_);
  out_.close();
  return Status::Ok();
}

BinaryReader::BinaryReader(const std::string& path, uint32_t magic,
                           uint32_t expected_version)
    : BinaryReader(path, magic, expected_version, expected_version) {}

BinaryReader::BinaryReader(const std::string& path, uint32_t magic,
                           uint32_t min_version, uint32_t max_version)
    : in_(path, std::ios::binary | std::ios::ate), path_(path) {
  if (!in_.good()) {
    Fail("cannot open");
    return;
  }
  const std::streamoff size = in_.tellg();
  in_.seekg(0);
  if (size < 0 || !in_.good()) {
    Fail("cannot size");
    return;
  }
  remaining_ = static_cast<uint64_t>(size);
  ok_ = true;
  const uint32_t got_magic = ReadU32();
  version_ = ReadU32();
  if (!ok_) return;
  if (got_magic != magic) {
    Fail("bad magic");
  } else if (version_ < min_version || version_ > max_version) {
    Fail("unsupported version");
  }
}

void BinaryReader::ReadRaw(void* data, size_t n) {
  if (!ok_) return;
  if (n > remaining_) {
    Fail("truncated read");
    return;
  }
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (!in_.good() && n > 0) Fail("truncated read");
  remaining_ -= n;
}

void BinaryReader::Fail(const std::string& msg) {
  ok_ = false;
  status_ = Status::IoError(msg + " (" + path_ + ")");
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

int64_t BinaryReader::ReadI64() {
  int64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

float BinaryReader::ReadF32() {
  float v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

double BinaryReader::ReadF64() {
  double v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

template <typename T>
std::vector<T> BinaryReader::ReadVector() {
  const uint64_t n = ReadU64();
  if (ok_ && n > remaining_ / sizeof(T)) Fail("bad length");
  if (!ok_) return {};
  std::vector<T> v(n);
  ReadRaw(v.data(), n * sizeof(T));
  return v;
}

std::string BinaryReader::ReadString() {
  const std::vector<char> chars = ReadVector<char>();
  return std::string(chars.begin(), chars.end());
}

std::vector<float> BinaryReader::ReadFloats() { return ReadVector<float>(); }

std::vector<int32_t> BinaryReader::ReadInts() {
  return ReadVector<int32_t>();
}

std::vector<int64_t> BinaryReader::ReadI64s() {
  return ReadVector<int64_t>();
}

void BufferWriter::WriteRaw(const void* data, size_t n) {
  if (n == 0) return;  // empty vectors/strings hand out a null data()
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  out_->insert(out_->end(), bytes, bytes + n);
}

void BufferWriter::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  WriteRaw(s.data(), s.size());
}

void BufferWriter::WriteF64s(const std::vector<double>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  WriteRaw(v.data(), v.size() * sizeof(double));
}

bool BufferReader::Take(void* out, size_t n) {
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return false;
  }
  if (n != 0) std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

uint8_t BufferReader::ReadU8() {
  uint8_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint32_t BufferReader::ReadU32() {
  uint32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint64_t BufferReader::ReadU64() {
  uint64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int32_t BufferReader::ReadI32() {
  int32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

double BufferReader::ReadF64() {
  double v = 0.0;
  Take(&v, sizeof(v));
  return v;
}

std::string BufferReader::ReadString() {
  const uint32_t n = ReadU32();
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return "";
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<double> BufferReader::ReadF64s() {
  const uint32_t n = ReadU32();
  if (!ok_ || static_cast<size_t>(n) * sizeof(double) > remaining()) {
    ok_ = false;
    return {};
  }
  std::vector<double> v(n);
  Take(v.data(), static_cast<size_t>(n) * sizeof(double));
  return v;
}

}  // namespace util
}  // namespace causaltad
