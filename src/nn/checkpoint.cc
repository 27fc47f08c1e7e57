#include "nn/checkpoint.h"

#include <limits>
#include <map>

#include "util/binary_io.h"

namespace causaltad {
namespace nn {
namespace {
constexpr uint32_t kMagic = 0xCA057AD0;
// v1: (name, shape, f32 data) records. v2: records carry a u32 dtype tag
// between shape and data; 0 = f32 is the only tag.
constexpr uint32_t kMinVersion = 1;
constexpr uint32_t kVersion = 2;

constexpr uint32_t kDtypeF32 = 0;

// Parameters are at most 2-D; the bound only keeps a corrupted ndim from
// sizing a huge shape vector.
constexpr uint64_t kMaxDims = 8;

/// Element count of `shape`, or -1 when a dim is negative or the product
/// overflows int64.
int64_t NumElements(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0 || (d > 0 && n > std::numeric_limits<int64_t>::max() / d)) {
      return -1;
    }
    n *= d;
  }
  return n;
}

}  // namespace

util::Status SaveCheckpoint(const std::string& path, const Module& module) {
  util::BinaryWriter writer(path, kMagic, kVersion);
  if (!writer.ok()) return util::Status::IoError("cannot open " + path);
  const auto params = module.NamedParameters();
  writer.WriteU64(params.size());
  for (const NamedParam& p : params) {
    writer.WriteString(p.name);
    const auto& shape = p.var.value().shape();
    writer.WriteU64(shape.size());
    for (int64_t d : shape) writer.WriteI64(d);
    writer.WriteU32(kDtypeF32);
    writer.WriteFloats(p.var.value().vec());
  }
  return writer.Close();
}

util::Status LoadCheckpoint(const std::string& path, Module* module) {
  util::BinaryReader reader(path, kMagic, kMinVersion, kVersion);
  if (!reader.ok()) return reader.status();

  std::map<std::string, std::pair<std::vector<int64_t>, std::vector<float>>>
      records;
  const uint64_t count = reader.ReadU64();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    const std::string name = reader.ReadString();
    // A failed read returns zeros, so these checks only fire on values
    // actually read; the reader's own status wins below.
    const uint64_t ndim = reader.ReadU64();
    if (ndim > kMaxDims) {
      return util::Status::InvalidArgument("bad rank for " + name + " in " +
                                           path);
    }
    std::vector<int64_t> shape(ndim);
    for (uint64_t d = 0; d < ndim; ++d) shape[d] = reader.ReadI64();
    const uint32_t dtype =
        reader.version() >= 2 ? reader.ReadU32() : kDtypeF32;
    if (dtype != kDtypeF32) {
      return util::Status::InvalidArgument(
          "unknown dtype tag for " + name + " in " + path);
    }
    std::vector<float> values = reader.ReadFloats();
    if (!reader.ok()) break;
    if (NumElements(shape) != static_cast<int64_t>(values.size())) {
      return util::Status::InvalidArgument(
          "record size does not match shape for " + name + " in " + path);
    }
    records[name] = {std::move(shape), std::move(values)};
  }
  if (!reader.ok()) return reader.status();

  auto params = module->NamedParameters();
  if (params.size() != records.size()) {
    return util::Status::InvalidArgument(
        "checkpoint/module parameter count mismatch for " + path);
  }
  // Validate everything before mutating anything.
  for (const NamedParam& p : params) {
    auto it = records.find(p.name);
    if (it == records.end()) {
      return util::Status::InvalidArgument("missing parameter " + p.name);
    }
    if (it->second.first != p.var.value().shape()) {
      return util::Status::InvalidArgument("shape mismatch for " + p.name);
    }
  }
  for (NamedParam& p : params) {
    p.var.mutable_value().vec() = records[p.name].second;
  }
  return util::Status::Ok();
}

}  // namespace nn
}  // namespace causaltad
