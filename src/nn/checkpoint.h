#ifndef CAUSALTAD_NN_CHECKPOINT_H_
#define CAUSALTAD_NN_CHECKPOINT_H_

#include <string>

#include "nn/modules.h"
#include "util/status.h"

namespace causaltad {
namespace nn {

/// Writes all named parameters of `module` to a binary checkpoint at `path`.
/// Format (v2): magic/version header, param count, then
/// (name, shape, dtype, data) records with dtype 0 = raw f32, the only
/// dtype written. Deterministic given the module's parameter values.
util::Status SaveCheckpoint(const std::string& path, const Module& module);

/// Restores parameters from `path` into `module`, matching records by name
/// and shape. Reads v1 checkpoints (untagged f32 records) and v2 records
/// tagged f32; any other dtype tag is InvalidArgument. Every size comes
/// from the file, so each is checked against the bytes left and each
/// record's float count against its shape. Fails (without mutating the
/// module) on a malformed, missing, extra or shape-mismatched record.
util::Status LoadCheckpoint(const std::string& path, Module* module);

}  // namespace nn
}  // namespace causaltad

#endif  // CAUSALTAD_NN_CHECKPOINT_H_
