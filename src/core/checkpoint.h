// Saving/restoring trained WIDEN parameters (extension beyond the paper:
// production systems need to ship the trained model to serving).

#ifndef WIDEN_CORE_CHECKPOINT_H_
#define WIDEN_CORE_CHECKPOINT_H_

#include <string>

#include "core/encoder.h"
#include "core/widen_model.h"
#include "util/status.h"

namespace widen::core {

/// Writes all parameters of `model` to `path` (tensor-bundle format, see
/// tensor/serialize.h). The WidenConfig is NOT stored; callers re-create the
/// model with the same config before restoring.
Status SaveWidenModel(const WidenModel& model, const std::string& path);

/// Restores parameters saved by SaveWidenModel into `model`, which must
/// have been created with a configuration producing identical parameter
/// shapes. Embedding caches are not restored (they are recomputed by the
/// next training/eval pass). Also accepts training checkpoints written by
/// SaveTrainingState (the resume blob is simply ignored), so a serving
/// process can load a mid-training snapshot.
Status LoadWidenModel(WidenModel& model, const std::string& path);

/// Full training checkpoint: parameters + embedding store (as in
/// SaveWidenModel) plus an opaque resume blob carrying the epoch counter,
/// RNG stream, Adam moments, neighbor sets, and KL attention histories
/// (WidenModel::ExportResumeState). Written atomically with per-record
/// checksums; a crash mid-save never clobbers an existing file.
Status SaveTrainingState(const WidenModel& model, const std::string& path);

/// Restores a checkpoint written by SaveTrainingState into `model` (created
/// with the same config and graph). After this, TrainUntil() continues
/// bitwise-identically to the run that wrote the checkpoint (num_threads=1).
/// Corrupt files yield a non-OK Status and leave `model` unchanged except
/// possibly the parameter values already copied before the corruption was
/// detected (checksums make that practically unreachable).
Status LoadTrainingState(WidenModel& model, const std::string& path);

/// A checkpoint's trained weights plus the training-time embedding store,
/// loaded WITHOUT constructing a WidenModel. Serving needs neither labels
/// nor the training graph, which WidenModel::Create requires; dimensions
/// are recovered from the stored tensor shapes instead of a config.
struct ServingWeights {
  EncoderParams params;           // frozen: no gradient buffers, no tape
  tensor::Tensor cache_reps;      // [N, d]; undefined if the file had none
  tensor::Tensor cache_valid;     // [N, 1] 0/1; defined iff cache_reps is
};

/// Loads serving weights from a file written by SaveWidenModel or
/// SaveTrainingState (the resume blob is ignored). Record names and shapes
/// are validated; corrupt or foreign files yield a non-OK status.
StatusOr<ServingWeights> LoadServingWeights(const std::string& path);

}  // namespace widen::core

#endif  // WIDEN_CORE_CHECKPOINT_H_
