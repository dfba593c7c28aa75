// Radix-2 FFT used by the lithography simulator (mask spectrum, coherent
// imaging, resist diffusion convolution).  Sizes must be powers of two;
// Image2D in src/litho pads accordingly.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace poc {

using Cplx = std::complex<double>;

/// True if n is a power of two (and > 0).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// In-place iterative radix-2 FFT.  inverse=true applies the conjugate
/// transform and divides by n (so fft(fft(x), inverse) == x).
void fft_1d(std::vector<Cplx>& data, bool inverse);

/// 2-D FFT over a row-major nx*ny grid (nx columns, ny rows); both
/// dimensions must be powers of two.
void fft_2d(std::vector<Cplx>& data, std::size_t nx, std::size_t ny,
            bool inverse);

/// fftshift-style index mapping: converts a spatial-frequency index
/// k in [0, n) to the signed frequency it represents, in cycles per
/// (n * dx) when multiplied by the caller's 1/(n*dx).
long long fft_freq_index(std::size_t k, std::size_t n);

// --- Band-limited 2-D transforms -----------------------------------------
//
// The SOCS imaging path only ever consumes (or populates) the |kx| <= kx_max
// corner of a spectrum — the pupil cuts everything beyond the coherent
// band.  These variants skip the column transforms outside that band.
// Requires 2*kx_max + 1 <= nx.  They define the SOCS engine's operation
// order: its four-lane transforms reproduce them bit for bit, and the
// frozen scalar engine in tests/litho_test.cpp is built from them.

/// Inverse 2-D FFT of a spectrum that is zero outside the |kx| <= kx_max
/// columns.  Runs the column pass first (only the nonzero columns), then
/// every row; mathematically equal to fft_2d(..., inverse=true) but with a
/// different operation order, so results differ in the last bits.
void fft_2d_band_inverse(std::vector<Cplx>& data, std::size_t nx,
                         std::size_t ny, std::size_t kx_max);

/// Forward 2-D FFT of real data, rows packed two-per-complex-transform;
/// output is valid only at the |kx| <= kx_max columns (zero elsewhere).
/// Requires even ny.  Not bit-identical to fft_2d on the widened input.
std::vector<Cplx> rfft_2d_band(const std::vector<double>& in, std::size_t nx,
                               std::size_t ny, std::size_t kx_max);

/// Inverse 2-D FFT of a Hermitian spectrum (spec[-k] == conj(spec[k]) in
/// both axes) that is zero outside the |kx| <= kx_max columns, returning
/// the real result directly with rows packed two-per-complex-transform.
/// Requires even ny.  Not bit-identical to fft_2d on the same input.
std::vector<double> irfft_2d_band(const std::vector<Cplx>& spec,
                                  std::size_t nx, std::size_t ny,
                                  std::size_t kx_max);

// --- Lane-parallel structure-of-arrays transforms -------------------------
//
// The imaging engines (src/litho/imaging.cpp) advance kFftLanes independent
// same-size spans of one window in lockstep.  Data lives in split
// real/imaginary double planes, lane-innermost: element e of lane w sits at
// re[e * stride + w], with `stride` >= kFftLanes so elements never overlap.
//
// The kernel is radix-2^2: each pass over the data runs two radix-2 stages
// (lengths len and 2*len) on the four elements a, a+len/2, a+len and
// a+3*len/2 they couple, and a plain radix-2 pass finishes an odd stage
// count.  An element's four lanes are one 4-wide vector value.  Each lane
// still executes exactly the scalar fft_1d operation sequence: the same
// bit-reversal swaps, and every butterfly u +/- x*w computed as
// (xr*wr - xi*wi, xr*wi + xi*wr), the std::complex product, against the
// same shared twiddle tables.  Regrouping stages only reorders butterflies
// that share no operand, so lane w's values are bit-identical to
// transforming span w alone.  Lanes never fuse or reassociate
// floating-point work.

#if defined(__GNUC__) || defined(__clang__)
#define POC_RESTRICT __restrict__
#else
#define POC_RESTRICT
#endif

/// Spans per fft_soa call: one AVX2 vector of doubles.
inline constexpr std::size_t kFftLanes = 4;

/// In-place lane-parallel radix-2 FFT over n elements x kFftLanes lanes.
/// Element e of lane w at re[e * stride + w] / im[e * stride + w].
void fft_soa(double* re, double* im, std::size_t n, bool inverse,
             std::size_t stride);

/// Storage column index (in [0, nx)) of compact band column c, following
/// the fixed for_band_columns order: c = 0..kx_max covers kx = 0..kx_max,
/// c = kx_max+1..2*kx_max covers kx = -kx_max..-1.
std::size_t band_column_storage(std::size_t c, std::size_t nx,
                                std::size_t kx_max);

}  // namespace poc
