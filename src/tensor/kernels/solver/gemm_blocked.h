#ifndef DESALIGN_TENSOR_KERNELS_SOLVER_GEMM_BLOCKED_H_
#define DESALIGN_TENSOR_KERNELS_SOLVER_GEMM_BLOCKED_H_

#include <cstdint>

#include "tensor/kernels/dispatch.h"

// Cache-blocked, panel-packed GEMM — the solver beside the row-axpy
// kernels (solver.h). Classic MC/KC/NC structure: B is packed one
// (KC x NC) panel at a time into column-major-of-8 micro-panels, rows are
// partitioned into 8-row tiles (the MC direction doubles as the parallel
// grain), each tile packs its (8 x KC) slice of A, and an 8x8 microkernel
// keeps the C tile in registers across the whole KC reduction. The AVX2
// microkernel uses explicit mul+add intrinsics (never FMA — the tree builds
// with -ffp-contract=off and bit-exactness vs the scalar path requires both
// roundings), and a scalar twin with the identical per-element operation
// chain serves non-AVX2 machines, DESALIGN_KERNEL_ISA=scalar, and tile
// edges — so the solver's output is one fixed bit pattern everywhere.
//
// Bit-exactness vs kernels/reference.cc holds because, per output element,
// the accumulation chain is untouched: KC blocks advance the reduction
// index in ascending order with the running sum held in C (or in the
// register tile mid-block), every term is a separate round(mul)+round(add),
// and the reference's skip of zero a-elements is reproduced term-for-term:
// a packed A tile that holds a zero runs a kernel that blends the skipped
// terms away, and any other tile runs the plain kernel, where the skip
// could never fire.

namespace desalign::tensor::kernels::solver::blocked {

/// c += a·b, a (m x k), b (k x n), c (m x n), all row-major. Accumulates
/// into the existing contents of c in ascending-p order — bit-identical to
///   for p in [0,k): if (!skip_zero_a || a[i,p] != 0) c[i,j] += a[i,p]*b[p,j]
/// for every element, any thread count, either ISA. Parallelism is
/// row-partitioned (8-row tiles) with no float atomics.
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, bool skip_zero_a, IsaLevel isa);

/// The three public-kernel shapes, each reproducing the corresponding
/// reference.cc accumulation contract exactly (see gemm_blocked.cc).
void MatMul(const float* a, const float* b, float* y, int64_t m, int64_t k,
            int64_t n, IsaLevel isa);
void MatMulGradA(const float* g, const float* b, float* ga, int64_t m,
                 int64_t k, int64_t n, IsaLevel isa);
void MatMulGradB(const float* g, const float* a, float* gb, int64_t m,
                 int64_t k, int64_t n, IsaLevel isa);

}  // namespace desalign::tensor::kernels::solver::blocked

#endif  // DESALIGN_TENSOR_KERNELS_SOLVER_GEMM_BLOCKED_H_
