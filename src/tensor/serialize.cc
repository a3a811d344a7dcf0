#include "tensor/serialize.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace widen::tensor {
namespace {

constexpr char kMagic[4] = {'W', 'D', 'N', 'T'};
constexpr char kFooterMagic[4] = {'W', 'D', 'N', 'F'};
constexpr uint32_t kVersion = 2;

enum RecordKind : uint8_t {
  kTensorRecord = 0,
  kBlobRecord = 1,
};

// Structural sanity bounds: far above anything the library produces, low
// enough that corrupt length fields cannot drive multi-gigabyte allocations.
constexpr uint64_t kMaxRecords = 1ull << 20;
constexpr uint32_t kMaxNameLength = 4096;
constexpr int64_t kMaxTensorElements = int64_t{1} << 28;  // 1 GiB of floats
constexpr uint64_t kMaxBlobBytes = 1ull << 30;

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// dims product with overflow checking; corrupt dimension fields must fail
/// cleanly rather than overflow int64 and size a std::vector negatively.
StatusOr<int64_t> CheckedElementCount(const std::vector<int64_t>& dims) {
  int64_t total = 1;
  for (int64_t dim : dims) {
    if (dim < 0) return Status::InvalidArgument("corrupt bundle (dimension)");
    if (dim == 0) {
      total = 0;
      continue;
    }
    if (total > kMaxTensorElements / dim) {
      return Status::InvalidArgument(
          "corrupt bundle (element count overflow)");
    }
    total *= dim;
  }
  if (total > kMaxTensorElements) {
    return Status::InvalidArgument("corrupt bundle (element count overflow)");
  }
  return total;
}

Shape ShapeFromDims(const std::vector<int64_t>& dims) {
  switch (dims.size()) {
    case 0:
      return Shape{};
    case 1:
      return Shape{dims[0]};
    case 2:
      return Shape{dims[0], dims[1]};
    case 3:
      return Shape{dims[0], dims[1], dims[2]};
    default:
      return Shape{dims[0], dims[1], dims[2], dims[3]};
  }
}

Status ValidateNames(const Bundle& bundle) {
  std::set<std::string> names;
  auto check = [&names](const std::string& name) {
    if (name.empty()) {
      return Status::InvalidArgument("record name must not be empty");
    }
    if (name.size() > kMaxNameLength) {
      return Status::InvalidArgument(StrCat("record name too long: '", name,
                                            "'"));
    }
    if (!names.insert(name).second) {
      return Status::InvalidArgument(StrCat("duplicate record name '", name,
                                            "'"));
    }
    return Status::OK();
  };
  for (const auto& [name, tensor] : bundle.tensors) {
    WIDEN_RETURN_IF_ERROR(check(name));
    if (!tensor.defined()) {
      return Status::InvalidArgument(StrCat("tensor '", name, "' is null"));
    }
  }
  for (const auto& [name, bytes] : bundle.blobs) {
    WIDEN_RETURN_IF_ERROR(check(name));
    if (bytes.size() > kMaxBlobBytes) {
      return Status::InvalidArgument(StrCat("blob '", name, "' too large"));
    }
  }
  return Status::OK();
}

/// Streams bytes to a FILE while maintaining the running whole-file CRC.
struct CrcFileWriter {
  std::FILE* file;
  uint32_t file_crc = 0;
  int64_t bytes_written = 0;
  bool ok = true;

  void Write(const void* data, size_t size) {
    if (!ok) return;
    if (std::fwrite(data, 1, size, file) != size) {
      ok = false;
      return;
    }
    bytes_written += static_cast<int64_t>(size);
    file_crc = Crc32cExtend(file_crc, data, size);
  }

  template <typename T>
  void WriteScalar(T value) {
    Write(&value, sizeof(T));
  }
};

void EncodeRecordHeader(ByteWriter& writer, RecordKind kind,
                        const std::string& name) {
  writer.WriteScalar<uint8_t>(kind);
  writer.WriteScalar<uint32_t>(static_cast<uint32_t>(name.size()));
  writer.WriteBytes(name.data(), name.size());
}

/// Reads record fields while maintaining both the per-record and whole-file
/// CRCs, with explicit remaining-byte accounting so corrupt length fields
/// cannot trigger oversized reads.
struct CrcFileReader {
  std::FILE* file;
  int64_t remaining;  // bytes left in the file from the current position
  uint32_t file_crc = 0;
  uint32_t record_crc = 0;
  int64_t crc_ns = 0;  // time spent in checksum verification

  bool Read(void* data, size_t size) {
    if (remaining < static_cast<int64_t>(size)) return false;
    if (std::fread(data, 1, size, file) != size) return false;
    remaining -= static_cast<int64_t>(size);
    // Clock only the bulk payload reads: tensor data dominates CRC time and
    // clocking 4-byte header reads would cost more than it measures.
    if (size >= 4096) {
      const auto t0 = std::chrono::steady_clock::now();
      file_crc = Crc32cExtend(file_crc, data, size);
      record_crc = Crc32cExtend(record_crc, data, size);
      crc_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    } else {
      file_crc = Crc32cExtend(file_crc, data, size);
      record_crc = Crc32cExtend(record_crc, data, size);
    }
    return true;
  }

  template <typename T>
  bool ReadScalar(T* value) {
    return Read(value, sizeof(T));
  }

  /// Reads bytes that are covered by the file CRC but not the record CRC
  /// (the stored per-record checksum itself).
  bool ReadOutsideRecord(void* data, size_t size) {
    if (remaining < static_cast<int64_t>(size)) return false;
    if (std::fread(data, 1, size, file) != size) return false;
    remaining -= static_cast<int64_t>(size);
    file_crc = Crc32cExtend(file_crc, data, size);
    return true;
  }
};

StatusOr<Bundle> LoadBody(CrcFileReader& reader, const std::string& path) {
  uint64_t count = 0;
  if (!reader.ReadScalar(&count) || count > kMaxRecords) {
    return Status::InvalidArgument("corrupt bundle (record count)");
  }
  Bundle out;
  for (uint64_t i = 0; i < count; ++i) {
    reader.record_crc = 0;
    uint8_t kind = 0;
    uint32_t name_length = 0;
    if (!reader.ReadScalar(&kind) ||
        (kind != kTensorRecord && kind != kBlobRecord)) {
      return Status::InvalidArgument("corrupt bundle (record kind)");
    }
    if (!reader.ReadScalar(&name_length) || name_length > kMaxNameLength) {
      return Status::InvalidArgument("corrupt bundle (name length)");
    }
    std::string name(name_length, '\0');
    if (!reader.Read(name.data(), name_length)) {
      return Status::IOError("truncated bundle (name)");
    }
    if (kind == kTensorRecord) {
      uint32_t rank = 0;
      if (!reader.ReadScalar(&rank) ||
          rank > static_cast<uint32_t>(Shape::kMaxRank)) {
        return Status::InvalidArgument("corrupt bundle (rank)");
      }
      std::vector<int64_t> dims(rank);
      for (uint32_t d = 0; d < rank; ++d) {
        uint64_t dim = 0;
        if (!reader.ReadScalar(&dim) || dim > (1ull << 32)) {
          return Status::InvalidArgument("corrupt bundle (dimension)");
        }
        dims[d] = static_cast<int64_t>(dim);
      }
      WIDEN_ASSIGN_OR_RETURN(const int64_t total, CheckedElementCount(dims));
      if (total * static_cast<int64_t>(sizeof(float)) > reader.remaining) {
        return Status::InvalidArgument(
            StrCat("truncated bundle ('", name, "' data)"));
      }
      std::vector<float> data(static_cast<size_t>(total));
      if (!reader.Read(data.data(), data.size() * sizeof(float))) {
        return Status::IOError(StrCat("truncated bundle ('", name,
                                      "' data)"));
      }
      out.tensors.emplace_back(
          std::move(name),
          Tensor::FromVector(ShapeFromDims(dims), std::move(data)));
    } else {
      uint64_t size = 0;
      if (!reader.ReadScalar(&size) || size > kMaxBlobBytes ||
          static_cast<int64_t>(size) > reader.remaining) {
        return Status::InvalidArgument("corrupt bundle (blob size)");
      }
      std::string bytes(static_cast<size_t>(size), '\0');
      if (!reader.Read(bytes.data(), bytes.size())) {
        return Status::IOError(StrCat("truncated bundle ('", name, "')"));
      }
      out.blobs.emplace_back(std::move(name), std::move(bytes));
    }
    const uint32_t computed_crc = reader.record_crc;
    uint32_t stored_crc = 0;
    if (!reader.ReadOutsideRecord(&stored_crc, sizeof(stored_crc))) {
      return Status::IOError("truncated bundle (record checksum)");
    }
    if (stored_crc != computed_crc) {
      return Status::InvalidArgument(
          StrCat("checksum mismatch in record ", i, " of '", path, "'"));
    }
  }
  // Footer: magic + record count + CRC of every byte before the footer.
  const uint32_t file_crc = reader.file_crc;
  char footer_magic[4];
  uint64_t footer_count = 0;
  uint32_t stored_file_crc = 0;
  if (!reader.ReadOutsideRecord(footer_magic, 4) ||
      std::memcmp(footer_magic, kFooterMagic, 4) != 0) {
    return Status::InvalidArgument("truncated bundle (missing footer)");
  }
  if (!reader.ReadOutsideRecord(&footer_count, sizeof(footer_count)) ||
      footer_count != count) {
    return Status::InvalidArgument("corrupt bundle (footer record count)");
  }
  if (!reader.ReadOutsideRecord(&stored_file_crc, sizeof(stored_file_crc)) ||
      stored_file_crc != file_crc) {
    return Status::InvalidArgument(
        StrCat("whole-file checksum mismatch in '", path, "'"));
  }
  if (reader.remaining != 0 || std::fgetc(reader.file) != EOF) {
    return Status::InvalidArgument("corrupt bundle (trailing bytes)");
  }
  return out;
}

}  // namespace

Status SaveBundle(const std::string& path, const Bundle& bundle) {
  WIDEN_METRIC_COUNTER(bytes_written, "widen_ckpt_bytes_written_total",
                       "Bytes written to checkpoint bundles");
  obs::StageScope stage(obs::Stage::kBundleSave);
  WIDEN_RETURN_IF_ERROR(ValidateNames(bundle));
  WIDEN_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Open(path));
  CrcFileWriter writer{file.stream()};
  const uint64_t record_count = bundle.tensors.size() + bundle.blobs.size();
  writer.Write(kMagic, 4);
  writer.WriteScalar<uint32_t>(kVersion);
  writer.WriteScalar<uint64_t>(record_count);

  std::string record;
  auto flush_record = [&writer, &record]() {
    writer.Write(record.data(), record.size());
    writer.WriteScalar<uint32_t>(Crc32c(record.data(), record.size()));
  };
  for (const auto& [name, tensor] : bundle.tensors) {
    record.clear();
    ByteWriter encoder(&record);
    EncodeRecordHeader(encoder, kTensorRecord, name);
    encoder.WriteScalar<uint32_t>(static_cast<uint32_t>(tensor.shape().rank()));
    for (int i = 0; i < tensor.shape().rank(); ++i) {
      encoder.WriteScalar<uint64_t>(
          static_cast<uint64_t>(tensor.shape().dim(i)));
    }
    encoder.WriteBytes(tensor.data(),
                       static_cast<size_t>(tensor.size()) * sizeof(float));
    flush_record();
  }
  for (const auto& [name, bytes] : bundle.blobs) {
    record.clear();
    ByteWriter encoder(&record);
    EncodeRecordHeader(encoder, kBlobRecord, name);
    encoder.WriteScalar<uint64_t>(bytes.size());
    encoder.WriteBytes(bytes.data(), bytes.size());
    flush_record();
  }
  const uint32_t file_crc = writer.file_crc;  // footer excludes itself
  writer.Write(kFooterMagic, 4);
  writer.WriteScalar<uint64_t>(record_count);
  writer.WriteScalar<uint32_t>(file_crc);
  if (!writer.ok) {
    return Status::IOError(StrCat("write to '", path, "' failed"));
  }
  WIDEN_RETURN_IF_ERROR(file.Commit());
  bytes_written->Add(writer.bytes_written);
  return Status::OK();
}

StatusOr<Bundle> LoadBundle(const std::string& path) {
  WIDEN_METRIC_COUNTER(bytes_read, "widen_ckpt_bytes_read_total",
                       "Bytes read from checkpoint bundles");
  WIDEN_METRIC_COUNTER(crc_verify_us, "widen_ckpt_crc_verify_us_total",
                       "Time spent verifying checkpoint CRCs on bulk reads "
                       "(microseconds)");
  obs::StageScope stage(obs::Stage::kBundleLoad);
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError(StrCat("cannot open '", path, "'"));
  }
  // Total size up front: length fields are validated against the bytes that
  // are actually present before anything is allocated.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError(StrCat("cannot seek '", path, "'"));
  }
  const int64_t file_size = static_cast<int64_t>(std::ftell(file.get()));
  if (file_size < 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
    return Status::IOError(StrCat("cannot seek '", path, "'"));
  }

  CrcFileReader reader{file.get(), file_size};
  char magic[4];
  uint32_t version = 0;
  if (!reader.Read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument(StrCat("'", path, "' is not a WIDEN "
                                          "tensor bundle"));
  }
  if (!reader.ReadScalar(&version)) {
    return Status::InvalidArgument("truncated bundle (version)");
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported bundle version ", version));
  }
  StatusOr<Bundle> bundle = LoadBody(reader, path);
  if (bundle.ok()) {
    bytes_read->Add(file_size);
    crc_verify_us->Add(reader.crc_ns / 1000);
  }
  return bundle;
}

Status SaveTensors(const std::string& path, const NamedTensors& tensors) {
  Bundle bundle;
  bundle.tensors = tensors;
  return SaveBundle(path, bundle);
}

StatusOr<NamedTensors> LoadTensors(const std::string& path) {
  WIDEN_ASSIGN_OR_RETURN(Bundle bundle, LoadBundle(path));
  return std::move(bundle.tensors);
}

Status CopyInto(const Tensor& source, Tensor& target) {
  if (!source.defined() || !target.defined()) {
    return Status::InvalidArgument("CopyInto on null tensor");
  }
  if (source.shape() != target.shape()) {
    return Status::InvalidArgument(
        StrCat("shape mismatch: ", source.shape().ToString(), " vs ",
               target.shape().ToString()));
  }
  std::memcpy(target.mutable_data(), source.data(),
              static_cast<size_t>(source.size()) * sizeof(float));
  return Status::OK();
}

StatusOr<Tensor> FindTensor(const NamedTensors& tensors,
                            const std::string& name) {
  for (const auto& [candidate, tensor] : tensors) {
    if (candidate == name) return tensor;
  }
  return Status::NotFound(StrCat("tensor '", name, "' not in bundle"));
}

}  // namespace widen::tensor
