// Binary serialization of tensors and named parameter bundles.
//
// Format v2 (little-endian, checksummed, crash-safe):
//   file   := MAGIC("WDNT") u32-version u64-count record* footer
//   record := u8-kind u32-name-length name-bytes body u32-crc32c
//   body   := tensor: u32-rank u64-dim* f32-data*        (kind 0)
//           | blob:   u64-size raw-bytes                 (kind 1)
//   footer := MAGIC("WDNF") u64-count u32-file-crc32c
//
// Each record's CRC32C covers its bytes from the kind tag through the body;
// the footer CRC covers every byte before the footer, so truncation anywhere
// and any single flipped byte are detected at load time. Files are written
// through the atomic temp-file + fsync + rename protocol (util/file_util.h):
// a crash mid-save leaves the previous bundle intact.
//
// Version 2 is the only format read or written; any other version is
// rejected. Floats are written raw; the format is not portable to
// big-endian machines (none are targeted).

#ifndef WIDEN_TENSOR_SERIALIZE_H_
#define WIDEN_TENSOR_SERIALIZE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace widen::tensor {

/// An ordered list of (name, tensor) pairs.
using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// An ordered list of (name, raw bytes) pairs for non-tensor state.
using NamedBlobs = std::vector<std::pair<std::string, std::string>>;

/// A checkpoint bundle: float tensors plus opaque byte records (optimizer /
/// RNG / sampler state). Names must be unique across tensors and blobs.
struct Bundle {
  NamedTensors tensors;
  NamedBlobs blobs;
};

/// Atomically writes `bundle` to `path` in format v2. Names must be unique
/// and non-empty; tensors must be non-null.
Status SaveBundle(const std::string& path, const Bundle& bundle);

/// Reads a v2 bundle, verifying every checksum. Any other version, any
/// truncation and any corruption yield a non-OK Status; nothing is ever
/// partially returned.
StatusOr<Bundle> LoadBundle(const std::string& path);

/// Writes `tensors` to `path` (v2, atomic). Names must be unique and
/// non-empty.
Status SaveTensors(const std::string& path, const NamedTensors& tensors);

/// Reads the tensor records of a bundle previously written by SaveTensors or
/// SaveBundle (blob records are ignored). Loaded tensors do not require
/// grad.
StatusOr<NamedTensors> LoadTensors(const std::string& path);

/// Copies values from `source` into `target` IN PLACE (shapes must match).
/// Used to restore checkpoints into live parameter tensors without
/// re-wiring optimizers.
Status CopyInto(const Tensor& source, Tensor& target);

/// Convenience: finds `name` in a loaded bundle; NotFound otherwise.
StatusOr<Tensor> FindTensor(const NamedTensors& tensors,
                            const std::string& name);

}  // namespace widen::tensor

#endif  // WIDEN_TENSOR_SERIALIZE_H_
