// Scalar reference kernels. These loop bodies replicate the pre-SIMD
// implementations in tensor/ops.cc statement for statement — forcing
// WIDEN_SIMD=off must reproduce the seed kernels' results bitwise, and the
// vector tables' lanewise entries are tested for exact agreement against
// this table. Keep every reduction strictly ascending.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd/simd.h"

namespace widen::tensor::simd {
namespace {

// Columns per j-tile of the blocked MatMul loop (mirrors ops.cc: the active
// B tile plus one output tile stay cache-resident while A is streamed).
constexpr int64_t kJTile = 128;

void MatMulRow(const float* arow, const float* b, float* orow, int64_t k,
               int64_t n) {
  for (int64_t j0 = 0; j0 < n; j0 += kJTile) {
    const int64_t j1 = std::min(n, j0 + kJTile);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + kk * n;
      for (int64_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
    }
  }
}

float Dot(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t j = 0; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

void Axpy(float a, const float* x, float* y, int64_t n) {
  for (int64_t j = 0; j < n; ++j) y[j] += a * x[j];
}

void Add(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void Sub(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void Mul(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleK(const float* a, float c, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * c;
}

void Acc(const float* g, float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) d[i] += g[i];
}

void AccScaled(const float* g, float s, float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) d[i] += s * g[i];
}

void MulAcc(const float* g, const float* x, float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) d[i] += g[i] * x[i];
}

void Relu(const float* x, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBwd(const float* g, const float* x, float* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    d[i] += g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
  }
}

void LeakyRelu(const float* x, float slope, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : slope * x[i];
}

void LeakyReluBwd(const float* g, const float* x, float slope, float* d,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    d[i] += g[i] * (x[i] > 0.0f ? 1.0f : slope);
  }
}

void SoftmaxRow(const float* row, const float* mrow, float* orow, int64_t n) {
  float max_v = mrow == nullptr ? row[0] : row[0] + mrow[0];
  for (int64_t j = 1; j < n; ++j) {
    const float z = mrow == nullptr ? row[j] : row[j] + mrow[j];
    max_v = std::max(max_v, z);
  }
  float denom = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    const float z = mrow == nullptr ? row[j] : row[j] + mrow[j];
    orow[j] = std::exp(z - max_v);
    denom += orow[j];
  }
  const float inv = 1.0f / denom;
  for (int64_t j = 0; j < n; ++j) orow[j] *= inv;
}

void SoftmaxRowBwd(const float* grow, const float* yrow, float* darow,
                   int64_t n) {
  float dot = 0.0f;
  for (int64_t j = 0; j < n; ++j) dot += grow[j] * yrow[j];
  for (int64_t j = 0; j < n; ++j) {
    darow[j] += yrow[j] * (grow[j] - dot);
  }
}

double SumSqRow(const float* row, int64_t n) {
  double sq = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    sq += static_cast<double>(row[j]) * row[j];
  }
  return sq;
}

void L2NormBwdRow(const float* grow, const float* yrow, float dot, float inv,
                  float* darow, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    darow[j] += (grow[j] - dot * yrow[j]) * inv;
  }
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels kTable = {
      Isa::kScalar,
      MatMulRow,
      Dot,
      Axpy,
      Add,
      Sub,
      Mul,
      ScaleK,
      Acc,
      AccScaled,
      MulAcc,
      Relu,
      ReluBwd,
      LeakyRelu,
      LeakyReluBwd,
      SoftmaxRow,
      SoftmaxRowBwd,
      SumSqRow,
      L2NormBwdRow,
  };
  return kTable;
}

}  // namespace widen::tensor::simd
