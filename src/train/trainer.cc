#include "train/trainer.h"

#include <algorithm>
#include <cstdio>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "train/metrics.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace widen::train {

std::vector<int32_t> GoldLabels(const graph::HeteroGraph& graph,
                                const std::vector<graph::NodeId>& nodes) {
  std::vector<int32_t> gold;
  gold.reserve(nodes.size());
  for (graph::NodeId v : nodes) {
    const int32_t y = graph.label(v);
    WIDEN_CHECK_GE(y, 0) << "node " << v << " is unlabeled";
    gold.push_back(y);
  }
  return gold;
}

StatusOr<EvalResult> Score(Model& model, const graph::HeteroGraph& graph,
                           const std::vector<graph::NodeId>& eval_nodes) {
  if (eval_nodes.empty()) {
    return Status::InvalidArgument("empty evaluation set");
  }
  WIDEN_ASSIGN_OR_RETURN(std::vector<int32_t> predictions,
                         model.Predict(graph, eval_nodes));
  const std::vector<int32_t> gold = GoldLabels(graph, eval_nodes);
  EvalResult result;
  result.micro_f1 = MicroF1(predictions, gold);
  result.macro_f1 = MacroF1(predictions, gold, graph.num_classes());
  return result;
}

StatusOr<EvalResult> FitAndScore(
    Model& model, const graph::HeteroGraph& fit_graph,
    const std::vector<graph::NodeId>& train_nodes,
    const graph::HeteroGraph& eval_graph,
    const std::vector<graph::NodeId>& eval_nodes) {
  StopWatch watch;
  WIDEN_RETURN_IF_ERROR(model.Fit(fit_graph, train_nodes));
  const double fit_seconds = watch.ElapsedSeconds();
  WIDEN_ASSIGN_OR_RETURN(EvalResult result,
                         Score(model, eval_graph, eval_nodes));
  result.fit_seconds = fit_seconds;
  return result;
}

namespace {

constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".wdnt";

std::string CheckpointName(int64_t epoch) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%08lld",
                static_cast<long long>(epoch));
  return StrCat(kCheckpointPrefix, digits, kCheckpointSuffix);
}

bool IsCheckpointName(const std::string& name) {
  const std::string prefix = kCheckpointPrefix;
  const std::string suffix = kCheckpointSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

std::string JoinPath(const std::string& directory, const std::string& name) {
  if (directory.empty() || directory.back() == '/') {
    return StrCat(directory, name);
  }
  return StrCat(directory, "/", name);
}

}  // namespace

StatusOr<std::vector<std::string>> ListCheckpoints(
    const std::string& directory) {
  WIDEN_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         ListDirectoryFiles(directory));
  std::vector<std::string> checkpoints;
  for (std::string& name : names) {
    if (IsCheckpointName(name)) checkpoints.push_back(std::move(name));
  }
  // Zero-padded epoch numbers: lexicographic order is chronological order.
  std::sort(checkpoints.begin(), checkpoints.end());
  return checkpoints;
}

StatusOr<int64_t> ResumeFromLatest(core::WidenModel& model,
                                   const std::string& directory) {
  if (!FileExists(directory)) return int64_t{0};
  WIDEN_ASSIGN_OR_RETURN(std::vector<std::string> checkpoints,
                         ListCheckpoints(directory));
  // Newest first; the first file that loads cleanly wins. A checkpoint that
  // fails its checksums (e.g. the save was interrupted between fsync and
  // rename, or the disk flipped a bit) is skipped, not fatal.
  WIDEN_METRIC_COUNTER(resumes, "widen_ckpt_resume_total",
                       "Training runs resumed from a checkpoint");
  WIDEN_METRIC_HISTOGRAM(restore_us, "widen_ckpt_restore_us",
                         "Wall time per successful training-state restore "
                         "(microseconds)");
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    const std::string path = JoinPath(directory, *it);
    obs::StageScope stage(obs::Stage::kCkptRestore);
    StopWatch watch;
    const Status status = core::LoadTrainingState(model, path);
    if (status.ok()) {
      resumes->Increment();
      restore_us->Record(watch.ElapsedSeconds() * 1e6);
      return model.current_epoch();
    }
    WIDEN_LOG(Warning) << "skipping unloadable checkpoint " << path << ": "
                       << status.message();
  }
  return int64_t{0};
}

StatusOr<core::WidenTrainReport> TrainWithCheckpoints(
    core::WidenModel& model, const std::vector<graph::NodeId>& train_nodes,
    int64_t target_epochs, const CheckpointConfig& checkpoint, bool resume,
    const std::function<void(const core::WidenEpochLog&)>& epoch_observer) {
  if (checkpoint.directory.empty()) {
    return Status::InvalidArgument("checkpoint directory must be set");
  }
  if (checkpoint.every_epochs <= 0) {
    return Status::InvalidArgument("checkpoint.every_epochs must be positive");
  }
  WIDEN_RETURN_IF_ERROR(EnsureDirectory(checkpoint.directory));
  if (resume) {
    WIDEN_ASSIGN_OR_RETURN(int64_t restored_epoch,
                           ResumeFromLatest(model, checkpoint.directory));
    (void)restored_epoch;
  }

  Status save_status = Status::OK();
  auto observer = [&](const core::WidenEpochLog& log) {
    if (epoch_observer) epoch_observer(log);
    if (!save_status.ok()) return;  // already failing; don't mask the error
    const int64_t completed = model.current_epoch();
    if (completed % checkpoint.every_epochs != 0 &&
        completed != target_epochs) {
      return;
    }
    const std::string path =
        JoinPath(checkpoint.directory, CheckpointName(completed));
    WIDEN_METRIC_COUNTER(ckpts_written, "widen_ckpt_written_total",
                         "Training-state checkpoints written");
    {
      obs::StageScope stage(obs::Stage::kCkptSave);
      save_status = core::SaveTrainingState(model, path);
    }
    if (!save_status.ok()) return;
    ckpts_written->Increment();
    if (checkpoint.keep_last > 0) {
      StatusOr<std::vector<std::string>> names =
          ListCheckpoints(checkpoint.directory);
      if (!names.ok()) return;  // pruning is best-effort
      const std::vector<std::string>& sorted = names.value();
      const size_t keep = static_cast<size_t>(checkpoint.keep_last);
      for (size_t i = 0; i + keep < sorted.size(); ++i) {
        (void)RemoveFileIfExists(JoinPath(checkpoint.directory, sorted[i]));
      }
    }
  };

  WIDEN_ASSIGN_OR_RETURN(
      core::WidenTrainReport report,
      model.TrainUntil(target_epochs, train_nodes, observer));
  WIDEN_RETURN_IF_ERROR(save_status);
  return report;
}

}  // namespace widen::train
