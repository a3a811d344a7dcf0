#include "core/checkpoint.h"

#include <utility>

#include "tensor/serialize.h"
#include "util/string_util.h"

namespace widen::core {
namespace {

// Blob record carrying WidenModel::ExportResumeState inside training
// checkpoints.
constexpr char kResumeBlobName[] = "train_state";

// Stable per-parameter names: index + label (labels alone may repeat across
// attention matrices of the same kind).
tensor::NamedTensors NameParameters(const WidenModel& model) {
  tensor::NamedTensors named;
  std::vector<tensor::Tensor> params = model.Parameters();
  named.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    named.emplace_back(StrCat("p", i, ":", params[i].label()), params[i]);
  }
  return named;
}

// Parameters first, then the optional embedding store (Algorithm 3's output,
// "vector representations for all v in V", is part of the trained state).
tensor::NamedTensors CollectTensors(const WidenModel& model) {
  tensor::NamedTensors named = NameParameters(model);
  tensor::Tensor reps, valid;
  if (model.ExportTrainingCache(&reps, &valid)) {
    named.emplace_back("cache:reps", reps);
    named.emplace_back("cache:valid", valid);
  }
  return named;
}

// Copies loaded tensors into the model: parameter records by position/name,
// then the optional trailing cache pair. Consumes `loaded`.
Status RestoreTensors(WidenModel& model, tensor::NamedTensors loaded) {
  tensor::NamedTensors expected = NameParameters(model);
  tensor::Tensor cache_reps, cache_valid;
  if (loaded.size() >= 2 && loaded[loaded.size() - 2].first == "cache:reps" &&
      loaded.back().first == "cache:valid") {
    cache_reps = loaded[loaded.size() - 2].second;
    cache_valid = loaded.back().second;
    loaded.pop_back();
    loaded.pop_back();
  }
  if (loaded.size() != expected.size()) {
    return Status::InvalidArgument(
        StrCat("checkpoint has ", loaded.size(), " tensors, model expects ",
               expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (loaded[i].first != expected[i].first) {
      return Status::InvalidArgument(
          StrCat("checkpoint tensor ", i, " is '", loaded[i].first,
                 "', model expects '", expected[i].first,
                 "' (was the model created with the same config?)"));
    }
    WIDEN_RETURN_IF_ERROR(
        tensor::CopyInto(loaded[i].second, expected[i].second));
  }
  if (cache_reps.defined()) {
    WIDEN_RETURN_IF_ERROR(model.ImportTrainingCache(cache_reps, cache_valid));
  }
  return Status::OK();
}

}  // namespace

Status SaveWidenModel(const WidenModel& model, const std::string& path) {
  return tensor::SaveTensors(path, CollectTensors(model));
}

Status LoadWidenModel(WidenModel& model, const std::string& path) {
  // LoadTensors skips blob records, so training checkpoints load fine here.
  WIDEN_ASSIGN_OR_RETURN(tensor::NamedTensors loaded,
                         tensor::LoadTensors(path));
  return RestoreTensors(model, std::move(loaded));
}

Status SaveTrainingState(const WidenModel& model, const std::string& path) {
  tensor::Bundle bundle;
  bundle.tensors = CollectTensors(model);
  bundle.blobs.emplace_back(kResumeBlobName, model.ExportResumeState());
  return tensor::SaveBundle(path, bundle);
}

StatusOr<ServingWeights> LoadServingWeights(const std::string& path) {
  WIDEN_ASSIGN_OR_RETURN(tensor::NamedTensors loaded,
                         tensor::LoadTensors(path));
  ServingWeights weights;
  if (loaded.size() >= 2 && loaded[loaded.size() - 2].first == "cache:reps" &&
      loaded.back().first == "cache:valid") {
    weights.cache_reps = loaded[loaded.size() - 2].second;
    weights.cache_valid = loaded.back().second;
    loaded.pop_back();
    loaded.pop_back();
  }
  const auto& labels = EncoderParams::CanonicalLabels();
  if (loaded.size() != labels.size()) {
    return Status::InvalidArgument(
        StrCat("checkpoint has ", loaded.size(), " parameter tensors, ",
               "expected ", labels.size()));
  }
  std::vector<tensor::Tensor> tensors;
  tensors.reserve(loaded.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    const std::string expected = StrCat("p", i, ":", labels[i]);
    if (loaded[i].first != expected) {
      return Status::InvalidArgument(
          StrCat("checkpoint tensor ", i, " is '", loaded[i].first,
                 "', expected '", expected, "' (not a WIDEN checkpoint?)"));
    }
    tensors.push_back(std::move(loaded[i].second));
  }
  WIDEN_ASSIGN_OR_RETURN(weights.params,
                         EncoderParams::FromTensors(std::move(tensors)));
  if (weights.cache_reps.defined()) {
    const int64_t n = weights.cache_reps.rows();
    if (weights.cache_reps.shape() !=
            tensor::Shape::Matrix(n, weights.params.embedding_dim()) ||
        weights.cache_valid.shape() != tensor::Shape::Matrix(n, 1)) {
      return Status::InvalidArgument("embedding store shape mismatch");
    }
  }
  return weights;
}

Status LoadTrainingState(WidenModel& model, const std::string& path) {
  WIDEN_ASSIGN_OR_RETURN(tensor::Bundle bundle, tensor::LoadBundle(path));
  const std::string* resume_blob = nullptr;
  for (const auto& [name, bytes] : bundle.blobs) {
    if (name == kResumeBlobName) resume_blob = &bytes;
  }
  if (resume_blob == nullptr) {
    return Status::InvalidArgument(
        StrCat("'", path, "' has no '", kResumeBlobName,
               "' record; use LoadWidenModel for parameter-only files"));
  }
  // The resume blob is validated (and the optimizer restored) before any
  // parameter bytes are touched, so a mismatched blob leaves the model
  // untouched.
  WIDEN_RETURN_IF_ERROR(model.ImportResumeState(*resume_blob));
  return RestoreTensors(model, std::move(bundle.tensors));
}

}  // namespace widen::core
