#include "src/litho/imaging.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "src/common/check.h"
#include "src/common/fft.h"
#include "src/litho/batch.h"
#include "src/litho/pupil_cache.h"

namespace poc {
namespace {

/// Storage index of signed frequency k on an n-point axis.
std::size_t freq_slot(long long k, std::size_t n) {
  return k >= 0 ? static_cast<std::size_t>(k)
                : n - static_cast<std::size_t>(-k);
}

/// Spectral layout every engine derives from the mask grid and the optics.
/// The coherent field only carries frequencies |f + fs| <= fc, i.e.
/// |f| <= fc (1 + sigma_outer): the band |kx| <= kx_max, |ky| <= ky_max.
/// Everything downstream of the mask transform therefore lives on a cropped
/// (coarse) ncx x ncy grid; intensity (|E|^2) doubles the bandwidth, so the
/// coarse grid spans twice the field band, and its spectrum (|kx| <= cx,
/// |ky| <= cy) is upsampled back onto the mask grid.
struct CropLayout {
  std::size_t nx = 0, ny = 0;
  std::size_t ncx = 0, ncy = 0;
  SpectralGrid grid;
  long long cx = 0, cy = 0;
  double crop_scale = 0.0;  ///< Field spectrum, mask grid -> coarse grid.
  double up_scale = 0.0;    ///< Intensity spectrum, coarse grid -> mask grid.
};

CropLayout crop_layout(std::size_t nx, std::size_t ny, double pixel,
                       const OpticalSettings& opt) {
  CropLayout l;
  l.nx = nx;
  l.ny = ny;
  const double dfx = 1.0 / (static_cast<double>(nx) * pixel);
  const double dfy = 1.0 / (static_cast<double>(ny) * pixel);
  const double reach = opt.cutoff_freq() * (1.0 + opt.sigma_outer) * 1.001;
  const long long kx_max = std::min<long long>(
      static_cast<long long>(nx) / 2 - 1,
      static_cast<long long>(reach / dfx) + 1);
  const long long ky_max = std::min<long long>(
      static_cast<long long>(ny) / 2 - 1,
      static_cast<long long>(reach / dfy) + 1);
  l.ncx = std::min(nx, next_pow2(static_cast<std::size_t>(4 * kx_max + 2)));
  l.ncy = std::min(ny, next_pow2(static_cast<std::size_t>(4 * ky_max + 2)));
  l.grid = SpectralGrid{dfx, dfy, kx_max, ky_max};
  l.cx = static_cast<long long>(l.ncx) / 2 - 1;
  l.cy = static_cast<long long>(l.ncy) / 2 - 1;
  l.crop_scale = static_cast<double>(l.ncx) * static_cast<double>(l.ncy) /
                 (static_cast<double>(nx) * static_cast<double>(ny));
  l.up_scale = static_cast<double>(nx) * static_cast<double>(ny) /
               (static_cast<double>(l.ncx) * static_cast<double>(l.ncy));
  return l;
}

/// 2 pi^2 sigma^2: the resist blur multiplies spectrum entry f by
/// exp(-blur_exponent_scale * |f|^2).
double blur_exponent_scale(double blur_sigma_nm) {
  return 2.0 * std::numbers::pi * std::numbers::pi * blur_sigma_nm *
         blur_sigma_nm;
}

// --- In-window lanes -------------------------------------------------------
//
// Both engines run every transform kLanes independent spans at once through
// fft_soa, and each lane replays the scalar fft_span operation sequence, so
// the image is bit-identical to transforming one span at a time.  Between a
// row pass and its column pass the data sits in column tiles: element e of
// column c at [((c / kLanes) * len + e) * kLanes + c % kLanes], so each
// tile's column pass works on contiguous memory.

constexpr std::size_t kLanes = kFftLanes;

std::size_t lane_tiles(std::size_t n) { return (n + kLanes - 1) / kLanes; }

/// Offset of element e of column c in column tiles of length len.
std::size_t tile_offset(std::size_t c, std::size_t e, std::size_t len) {
  return ((c / kLanes) * len + e) * kLanes + c % kLanes;
}

/// Transforms the kLanes rows packed in row_re/row_im (element x of row l
/// at [x * kLanes + l]) and stores the first nw of them as elements
/// r0..r0+nw-1 of ncols column-tiled output columns of length len; output
/// column c takes row element col_of(c).  Columns past ncols in the last
/// tile are zero-filled so their lanes stay finite.
template <typename ColOf>
void rows_to_column_tiles(double* row_re, double* row_im, std::size_t n,
                          bool inverse, std::size_t nw, std::size_t ncols,
                          ColOf col_of, std::size_t len, std::size_t r0,
                          double* tile_re, double* tile_im) {
  fft_soa(row_re, row_im, n, inverse, kLanes);
  for (std::size_t c = 0; c < lane_tiles(ncols) * kLanes; ++c) {
    const std::size_t at = tile_offset(c, r0, len);
    double* POC_RESTRICT dr = tile_re + at;
    double* POC_RESTRICT di = tile_im + at;
    if (c < ncols) {
      const double* POC_RESTRICT sr = row_re + col_of(c) * kLanes;
      const double* POC_RESTRICT si = row_im + col_of(c) * kLanes;
      for (std::size_t l = 0; l < nw; ++l) {
        dr[l * kLanes] = sr[l];
        di[l * kLanes] = si[l];
      }
    } else {
      for (std::size_t l = 0; l < nw; ++l) {
        dr[l * kLanes] = 0.0;
        di[l * kLanes] = 0.0;
      }
    }
  }
}

/// Expands a band-compact lane column (2k+1 elements: frequencies 0..k,
/// then -k..-1) into a full n-element lane column, +0 in between.
void expand_band_column(const double* src_re, const double* src_im,
                        std::size_t k, std::size_t n, double* col_re,
                        double* col_im) {
  const std::size_t lo = (k + 1) * kLanes;
  const std::size_t hi = k * kLanes;
  const std::size_t end = n * kLanes;
  std::copy(src_re, src_re + lo, col_re);
  std::copy(src_im, src_im + lo, col_im);
  std::fill(col_re + lo, col_re + end - hi, 0.0);
  std::fill(col_im + lo, col_im + end - hi, 0.0);
  std::copy(src_re + lo, src_re + lo + hi, col_re + end - hi);
  std::copy(src_im + lo, src_im + lo + hi, col_im + end - hi);
}

// --- Abbe engine ------------------------------------------------------------
//
// The lane is the mask row, then the band column, of the forward transform;
// the source point on the coarse grid; and the spectrum row, then the image
// column, of the upsample.  Rows that are entirely +0 (|ky| beyond the
// band) are never transformed: every butterfly of a +0 span adds or
// subtracts a signed-zero product to u = +0, which rounds to +0, so
// skipping them changes no bit.

/// Abbe source-point summation into `result` (already nx x ny).  All
/// scratch comes from `arena`.
void abbe_aerial_image(const Image2D& mask, const OpticalSettings& opt,
                       double defocus_nm, double blur_sigma_nm,
                       const std::vector<SourcePoint>& source,
                       const CropLayout& l, ScratchArena& arena,
                       Image2D& result) {
  const std::size_t nx = l.nx;
  const std::size_t ny = l.ny;
  const std::size_t ncx = l.ncx;
  const std::size_t ncy = l.ncy;
  const long long kx_max = l.grid.kx_max;
  const long long ky_max = l.grid.ky_max;
  const std::size_t nb = 2 * static_cast<std::size_t>(kx_max) + 1;
  const std::size_t nr = 2 * static_cast<std::size_t>(ky_max) + 1;
  const std::size_t nru = 2 * static_cast<std::size_t>(l.cy) + 1;
  double* row_re = arena.buf(ScratchArena::kRowRe, nx * kLanes);
  double* row_im = arena.buf(ScratchArena::kRowIm, nx * kLanes);
  double* col_re = arena.buf(ScratchArena::kColRe, ny * kLanes);
  double* col_im = arena.buf(ScratchArena::kColIm, ny * kLanes);

  // Mask spectrum: every row (mask edges are not band-limited, so the row
  // pass needs full resolution), then only the nb band columns, which land
  // in column tiles of length ny.
  const std::size_t spec_size = lane_tiles(nb) * ny * kLanes;
  double* spec_re = arena.buf(ScratchArena::kSpecRe, spec_size);
  double* spec_im = arena.buf(ScratchArena::kSpecIm, spec_size);
  const double* m = mask.data().data();
  for (std::size_t y0 = 0; y0 < ny; y0 += kLanes) {
    const std::size_t nw = std::min(kLanes, ny - y0);
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t w = 0; w < kLanes; ++w) {
        row_re[x * kLanes + w] = w < nw ? m[(y0 + w) * nx + x] : 0.0;
        row_im[x * kLanes + w] = 0.0;
      }
    }
    rows_to_column_tiles(
        row_re, row_im, nx, /*inverse=*/false, nw, nb,
        [&](std::size_t c) {
          return band_column_storage(c, nx, static_cast<std::size_t>(kx_max));
        },
        ny, y0, spec_re, spec_im);
  }
  for (std::size_t t = 0; t < lane_tiles(nb); ++t) {
    fft_soa(spec_re + t * ny * kLanes, spec_im + t * ny * kLanes, ny,
            /*inverse=*/false, kLanes);
  }

  // Coherent systems on the coarse grid, kLanes source points per tile.
  // The field keeps only its nr band rows (column x, band row r, source
  // lane w at [(x * nr + r) * kLanes + w]); each column is expanded to full
  // height for its transform and folded straight into the column-major
  // intensity, per pixel in ascending source order.
  double* field_re = arena.buf(ScratchArena::kFieldRe, ncx * nr * kLanes);
  double* field_im = arena.buf(ScratchArena::kFieldIm, ncx * nr * kLanes);
  double* intensity = arena.buf(ScratchArena::kIntensity, ncx * ncy);
  std::fill(intensity, intensity + ncx * ncy, 0.0);
  const std::shared_ptr<const PupilTables> pupils =
      pupil_tables(opt, source, defocus_nm, l.grid);
  for (std::size_t s0 = 0; s0 < source.size(); s0 += kLanes) {
    const std::size_t nw = std::min(kLanes, source.size() - s0);
    std::fill(field_re, field_re + ncx * nr * kLanes, 0.0);
    std::fill(field_im, field_im + ncx * nr * kLanes, 0.0);
    for (std::size_t w = 0; w < nw; ++w) {
      const Cplx* table = pupils->tables[s0 + w].data();
      std::size_t idx = 0;
      for (long long ky = -ky_max; ky <= ky_max; ++ky) {
        const std::size_t r = freq_slot(ky, nr);
        const std::size_t ys = freq_slot(ky, ny);
        for (long long kx = -kx_max; kx <= kx_max; ++kx) {
          const Cplx p = table[idx++];
          if (p == Cplx(0.0, 0.0)) continue;
          const std::size_t at = tile_offset(freq_slot(kx, nb), ys, ny);
          // spectrum * p (naive complex product), then * crop_scale.
          const double sr = spec_re[at];
          const double si = spec_im[at];
          const double vr = sr * p.real() - si * p.imag();
          const double vi = sr * p.imag() + si * p.real();
          const std::size_t f = (freq_slot(kx, ncx) * nr + r) * kLanes + w;
          field_re[f] = vr * l.crop_scale;
          field_im[f] = vi * l.crop_scale;
        }
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      fft_soa(field_re + r * kLanes, field_im + r * kLanes, ncx,
              /*inverse=*/true, nr * kLanes);
    }
    for (std::size_t x = 0; x < ncx; ++x) {
      expand_band_column(field_re + x * nr * kLanes,
                         field_im + x * nr * kLanes,
                         static_cast<std::size_t>(ky_max), ncy, col_re, col_im);
      fft_soa(col_re, col_im, ncy, /*inverse=*/true, kLanes);
      double* acc = intensity + x * ncy;
      for (std::size_t y = 0; y < ncy; ++y) {
        double a = acc[y];
        for (std::size_t w = 0; w < nw; ++w) {
          const Cplx e(col_re[y * kLanes + w], col_im[y * kLanes + w]);
          a += source[s0 + w].weight * std::norm(e);
        }
        acc[y] = a;
      }
    }
  }

  // Upsample the band-limited intensity to the mask grid through the
  // frequency domain (exact), applying the resist diffusion blur in the
  // same pass: forward transform of the coarse intensity (rows, then
  // column tiles of length ncy) ...
  const std::size_t coarse_size = lane_tiles(ncx) * ncy * kLanes;
  double* coarse_re = arena.buf(ScratchArena::kCoarseRe, coarse_size);
  double* coarse_im = arena.buf(ScratchArena::kCoarseIm, coarse_size);
  const auto identity = [](std::size_t c) { return c; };
  for (std::size_t y0 = 0; y0 < ncy; y0 += kLanes) {
    const std::size_t nw = std::min(kLanes, ncy - y0);
    for (std::size_t x = 0; x < ncx; ++x) {
      for (std::size_t w = 0; w < kLanes; ++w) {
        row_re[x * kLanes + w] = w < nw ? intensity[x * ncy + y0 + w] : 0.0;
        row_im[x * kLanes + w] = 0.0;
      }
    }
    rows_to_column_tiles(row_re, row_im, ncx, /*inverse=*/false, nw, ncx,
                         identity, ncy, y0, coarse_re, coarse_im);
  }
  for (std::size_t t = 0; t < lane_tiles(ncx); ++t) {
    fft_soa(coarse_re + t * ncy * kLanes, coarse_im + t * ncy * kLanes, ncy,
            /*inverse=*/false, kLanes);
  }

  // ... then the inverse over the nru nonzero spectrum rows (blur factor
  // scattered in with the fused exponent the reference has always used),
  // and over every image column, written straight into the result.
  const double two_pi2_s2 = blur_exponent_scale(blur_sigma_nm);
  const std::size_t up_size = lane_tiles(nx) * nru * kLanes;
  double* up_re = arena.buf(ScratchArena::kUpWorkRe, up_size);
  double* up_im = arena.buf(ScratchArena::kUpWorkIm, up_size);
  for (std::size_t r0 = 0; r0 < nru; r0 += kLanes) {
    const std::size_t nw = std::min(kLanes, nru - r0);
    std::fill(row_re, row_re + nx * kLanes, 0.0);
    std::fill(row_im, row_im + nx * kLanes, 0.0);
    for (std::size_t w = 0; w < nw; ++w) {
      const long long r = static_cast<long long>(r0 + w);
      const long long ky = r <= l.cy ? r : r - static_cast<long long>(nru);
      const double fy = static_cast<double>(ky) * l.grid.dfy;
      const std::size_t yc = freq_slot(ky, ncy);
      for (long long kx = -l.cx; kx <= l.cx; ++kx) {
        const double fx = static_cast<double>(kx) * l.grid.dfx;
        const double blur =
            blur_sigma_nm > 0.0
                ? std::exp(-two_pi2_s2 * (fx * fx + fy * fy))
                : 1.0;
        const double f = l.up_scale * blur;
        const std::size_t at = tile_offset(freq_slot(kx, ncx), yc, ncy);
        const std::size_t xs = freq_slot(kx, nx);
        row_re[xs * kLanes + w] = coarse_re[at] * f;
        row_im[xs * kLanes + w] = coarse_im[at] * f;
      }
    }
    rows_to_column_tiles(row_re, row_im, nx, /*inverse=*/true, nw, nx,
                         identity, nru, r0, up_re, up_im);
  }
  double* out = result.data().data();
  for (std::size_t t = 0; t < lane_tiles(nx); ++t) {
    expand_band_column(up_re + t * nru * kLanes, up_im + t * nru * kLanes,
                       static_cast<std::size_t>(l.cy), ny, col_re, col_im);
    fft_soa(col_re, col_im, ny, /*inverse=*/true, kLanes);
    const std::size_t x0 = t * kLanes;
    const std::size_t nw = std::min(kLanes, nx - x0);
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t w = 0; w < nw; ++w) {
        out[y * nx + x0 + w] = col_re[y * kLanes + w];
      }
    }
  }
}

// --- SOCS engine -------------------------------------------------------------
//
// The same lanes, applied to the SOCS operation order: a packed real-input
// band transform of the mask (two rows per complex transform), one
// band-column-first inverse per coherent system (two parity-packed kernels
// per transform, or one generic kernel), a full forward transform of the
// coarse intensity, and a packed real-output band inverse for the upsample
// (two output rows per complex transform).  The lane is the mask row pair,
// then the band column; the band column, then the coarse row of each
// coherent system; the coarse row, then the band column of the intensity
// spectrum; and the band column, then the output row pair of the upsample.
// Complex products are written out as the naive expansion std::complex
// compiles to on finite data, so every signed zero rounds as in the scalar
// transforms (rfft_2d_band, fft_2d_band_inverse, fft_2d, irfft_2d_band)
// that define the order.

/// Zeroes the rows of a column tile strictly between frequencies k and -k
/// (element e of lane w at [e * kLanes + w], n elements): the part of each
/// band column a band-limited scatter leaves unwritten.
void zero_band_gap(double* tile_re, double* tile_im, std::size_t k,
                   std::size_t n) {
  std::fill(tile_re + (k + 1) * kLanes, tile_re + (n - k) * kLanes, 0.0);
  std::fill(tile_im + (k + 1) * kLanes, tile_im + (n - k) * kLanes, 0.0);
}

/// Signed frequency of compact band column c of a band of half-width k.
long long band_freq(std::size_t c, std::size_t k) {
  return c <= k ? static_cast<long long>(c)
                : static_cast<long long>(c) - static_cast<long long>(2 * k + 1);
}

/// Truncated coherent-kernel summation into `result` (already nx x ny).
/// All scratch comes from `arena`.
void socs_aerial_image(const Image2D& mask, const OpticalSettings& opt,
                       double defocus_nm, double blur_sigma_nm,
                       const std::vector<SourcePoint>& source,
                       const SocsOptions& socs, const CropLayout& l,
                       ScratchArena& arena, Image2D& result) {
  const std::size_t nx = l.nx;
  const std::size_t ny = l.ny;
  const std::size_t ncx = l.ncx;
  const std::size_t ncy = l.ncy;
  const std::size_t kx = static_cast<std::size_t>(l.grid.kx_max);
  const std::size_t ky = static_cast<std::size_t>(l.grid.ky_max);
  const std::size_t nb = 2 * kx + 1;
  const std::size_t pairs = ny / 2;
  double* row_re = arena.buf(ScratchArena::kRowRe, nx * kLanes);
  double* row_im = arena.buf(ScratchArena::kRowIm, nx * kLanes);

  // Mask spectrum: kLanes packed row pairs per transform, each split into
  // its two rows' band columns, which land in column tiles of length ny.
  const std::size_t spec_size = lane_tiles(nb) * ny * kLanes;
  double* spec_re = arena.buf(ScratchArena::kSpecRe, spec_size);
  double* spec_im = arena.buf(ScratchArena::kSpecIm, spec_size);
  const double* m = mask.data().data();
  for (std::size_t p0 = 0; p0 < pairs; p0 += kLanes) {
    const std::size_t nw = std::min(kLanes, pairs - p0);
    for (std::size_t x = 0; x < nx; ++x) {
      for (std::size_t w = 0; w < kLanes; ++w) {
        const std::size_t y = 2 * (p0 + w);
        row_re[x * kLanes + w] = w < nw ? m[y * nx + x] : 0.0;
        row_im[x * kLanes + w] = w < nw ? m[(y + 1) * nx + x] : 0.0;
      }
    }
    fft_soa(row_re, row_im, nx, /*inverse=*/false, kLanes);
    for (std::size_t c = 0; c < lane_tiles(nb) * kLanes; ++c) {
      double* dr = spec_re + tile_offset(c, 2 * p0, ny);
      double* di = spec_im + tile_offset(c, 2 * p0, ny);
      if (c >= nb) {  // the last tile's spare columns stay +0
        for (std::size_t e = 0; e < 2 * nw; ++e) dr[e * kLanes] = 0.0;
        for (std::size_t e = 0; e < 2 * nw; ++e) di[e * kLanes] = 0.0;
        continue;
      }
      const std::size_t k = band_column_storage(c, nx, kx);
      const std::size_t mk = (nx - k) & (nx - 1);
      for (std::size_t w = 0; w < nw; ++w) {
        double* e0r = dr + 2 * w * kLanes;
        double* e0i = di + 2 * w * kLanes;
        // zk = z[k], zm = conj(z[-k]); row y: 0.5 * (zk + zm), row y + 1:
        // Cplx(0.0, -0.5) * (zk - zm).
        const double ar = row_re[k * kLanes + w];
        const double ai = row_im[k * kLanes + w];
        const double br = row_re[mk * kLanes + w];
        const double bi = -row_im[mk * kLanes + w];
        e0r[0] = 0.5 * (ar + br);
        e0i[0] = 0.5 * (ai + bi);
        const double dre = ar - br;
        const double dim = ai - bi;
        e0r[kLanes] = 0.0 * dre - (-0.5) * dim;
        e0i[kLanes] = 0.0 * dim + (-0.5) * dre;
      }
    }
  }
  for (std::size_t t = 0; t < lane_tiles(nb); ++t) {
    fft_soa(spec_re + t * ny * kLanes, spec_im + t * ny * kLanes, ny,
            /*inverse=*/false, kLanes);
  }

  // Coherent systems: each fills the band columns of its filtered spectrum
  // (column tiles of length ncy), inverse-transforms them, then kLanes
  // coarse rows per transform, and folds w |E|^2 straight into the
  // intensity (row tiles: row r0 + w, column x at [x * kLanes + w]), per
  // pixel in ascending kernel order.
  const std::size_t field_size = lane_tiles(nb) * ncy * kLanes;
  double* field_re = arena.buf(ScratchArena::kFieldRe, field_size);
  double* field_im = arena.buf(ScratchArena::kFieldIm, field_size);
  const std::size_t int_size = lane_tiles(ncy) * ncx * kLanes;
  double* intensity = arena.buf(ScratchArena::kIntensity, int_size);
  std::fill(intensity, intensity + int_size, 0.0);
  // field_at(spectrum re, im, kernel table index, field re&, im&) computes
  // one band entry; fold(intensity row tile, field rows re, im) adds w |E|^2.
  const auto coherent_system = [&](const auto& field_at, const auto& fold) {
    for (std::size_t t = 0; t < lane_tiles(nb); ++t) {
      double* fr = field_re + t * ncy * kLanes;
      double* fi = field_im + t * ncy * kLanes;
      zero_band_gap(fr, fi, ky, ncy);
      for (long long v = -l.grid.ky_max; v <= l.grid.ky_max; ++v) {
        const std::size_t at = freq_slot(v, ncy) * kLanes;
        const std::size_t from = (t * ny + freq_slot(v, ny)) * kLanes;
        const std::size_t row = static_cast<std::size_t>(v + l.grid.ky_max);
        for (std::size_t w = 0; w < kLanes; ++w) {
          const std::size_t c = t * kLanes + w;
          if (c >= nb) {
            fr[at + w] = fi[at + w] = 0.0;
            continue;
          }
          const std::size_t idx = row * nb + static_cast<std::size_t>(
                                                 band_freq(c, kx) +
                                                 l.grid.kx_max);
          field_at(spec_re[from + w], spec_im[from + w], idx, fr[at + w],
                   fi[at + w]);
        }
      }
      fft_soa(fr, fi, ncy, /*inverse=*/true, kLanes);
    }
    for (std::size_t r0 = 0; r0 < ncy; r0 += kLanes) {
      const std::size_t nw = std::min(kLanes, ncy - r0);
      std::fill(row_re, row_re + ncx * kLanes, 0.0);
      std::fill(row_im, row_im + ncx * kLanes, 0.0);
      for (std::size_t c = 0; c < nb; ++c) {
        const std::size_t x = band_column_storage(c, ncx, kx);
        const std::size_t at = tile_offset(c, r0, ncy);
        for (std::size_t w = 0; w < nw; ++w) {
          row_re[x * kLanes + w] = field_re[at + w * kLanes];
          row_im[x * kLanes + w] = field_im[at + w * kLanes];
        }
      }
      fft_soa(row_re, row_im, ncx, /*inverse=*/true, kLanes);
      fold(intensity + r0 * ncx, row_re, row_im);
    }
  };
  const std::size_t row_len = ncx * kLanes;
  const double crop_scale = l.crop_scale;
  const std::shared_ptr<const SocsKernels> kernels =
      socs_kernels(opt, source, defocus_nm, l.grid, socs);
  const std::size_t nk = kernels->kernels.size();
  if (kernels->parity_packable()) {
    // Parity-pure real kernels (nominal focus, no aberrations): each
    // kernel's filtered spectrum M*phi is Hermitian — directly for even
    // kernels, after an -i twist for odd ones (whose fields are purely
    // imaginary, so the twist rotates them onto the real axis without
    // changing |E|^2).  Two Hermitian spectra ride one complex inverse
    // transform as its real and imaginary parts, halving the per-kernel
    // transform count with no truncation error.
    for (std::size_t k = 0; k < nk; k += 2) {
      const bool pair = k + 1 < nk;
      const Cplx* phi1 = kernels->kernels[k].data();
      const Cplx* phi2 = pair ? kernels->kernels[k + 1].data() : nullptr;
      const bool odd1 = kernels->parity[k] == 2;
      const bool odd2 = pair && kernels->parity[k + 1] == 2;
      const double w1 = kernels->weights[k];
      const double w2 = pair ? kernels->weights[k + 1] : 0.0;
      const auto field_at = [&](double sr, double si, std::size_t idx,
                                double& fr, double& fi) {
        // m = M * crop_scale; h = m * phi.real(), -i twist when odd; the
        // pair packs as h1 + i h2 (h2 = +0 without a partner).
        const double mr = sr * crop_scale;
        const double mi = si * crop_scale;
        const double p1 = phi1[idx].real();
        const double h1r = odd1 ? mi * p1 : mr * p1;
        const double h1i = odd1 ? -(mr * p1) : mi * p1;
        if (pair) {
          const double p2 = phi2[idx].real();
          const double h2r = odd2 ? mi * p2 : mr * p2;
          const double h2i = odd2 ? -(mr * p2) : mi * p2;
          fr = h1r - h2i;
          fi = h1i + h2r;
        } else {
          fr = h1r - 0.0;
          fi = h1i + 0.0;
        }
      };
      if (pair) {
        coherent_system(field_at, [&](double* POC_RESTRICT acc,
                                      const double* POC_RESTRICT re,
                                      const double* POC_RESTRICT im) {
          // VEC-LOOP(socs-kernel-apply): per-pixel fold of a kernel pair.
          for (std::size_t j = 0; j < row_len; ++j) {
            acc[j] += w1 * re[j] * re[j] + w2 * im[j] * im[j];
          }
        });
      } else {
        coherent_system(field_at, [&](double* POC_RESTRICT acc,
                                      const double* POC_RESTRICT re,
                                      const double*) {
          for (std::size_t j = 0; j < row_len; ++j) {
            acc[j] += w1 * re[j] * re[j];
          }
        });
      }
    }
  } else {
    for (std::size_t k = 0; k < nk; ++k) {
      const Cplx* table = kernels->kernels[k].data();
      const double weight = kernels->weights[k];
      coherent_system(
          [&](double sr, double si, std::size_t idx, double& fr, double& fi) {
            // Entries the kernel zeroes stay +0; otherwise spectrum * p
            // (naive complex product), then * crop_scale.
            const Cplx p = table[idx];
            if (p == Cplx(0.0, 0.0)) {
              fr = fi = 0.0;
              return;
            }
            fr = (sr * p.real() - si * p.imag()) * crop_scale;
            fi = (sr * p.imag() + si * p.real()) * crop_scale;
          },
          [&](double* POC_RESTRICT acc, const double* POC_RESTRICT re,
              const double* POC_RESTRICT im) {
            for (std::size_t j = 0; j < row_len; ++j) {
              acc[j] += weight * (re[j] * re[j] + im[j] * im[j]);
            }
          });
    }
  }

  // Upsample the band-limited intensity to the mask grid through the
  // frequency domain (exact), applying the resist diffusion blur in the
  // same pass: forward transform of the coarse intensity rows (each row
  // tile transformed in place, imaginary parts zero), of which only the
  // nbu columns with |kx| <= cx are kept and transformed ...
  const std::size_t cx = static_cast<std::size_t>(l.cx);
  const std::size_t cy = static_cast<std::size_t>(l.cy);
  const std::size_t nbu = 2 * cx + 1;
  const std::size_t coarse_size = lane_tiles(nbu) * ncy * kLanes;
  double* coarse_re = arena.buf(ScratchArena::kCoarseRe, coarse_size);
  double* coarse_im = arena.buf(ScratchArena::kCoarseIm, coarse_size);
  for (std::size_t r0 = 0; r0 < ncy; r0 += kLanes) {
    std::fill(row_im, row_im + ncx * kLanes, 0.0);
    rows_to_column_tiles(
        intensity + r0 * ncx, row_im, ncx, /*inverse=*/false,
        std::min(kLanes, ncy - r0), nbu,
        [&](std::size_t c) { return band_column_storage(c, ncx, cx); }, ncy,
        r0, coarse_re, coarse_im);
  }
  for (std::size_t t = 0; t < lane_tiles(nbu); ++t) {
    fft_soa(coarse_re + t * ncy * kLanes, coarse_im + t * ncy * kLanes, ncy,
            /*inverse=*/false, kLanes);
  }

  // ... then scale each kept entry by up_scale and the separable blur
  // factors, inverse-transform the band columns at full height, and
  // finally kLanes packed row pairs per transform (row y + i row y+1),
  // written straight into the result.
  const double two_pi2_s2 = blur_exponent_scale(blur_sigma_nm);
  double* bx = arena.buf(ScratchArena::kBlurX, lane_tiles(nbu) * kLanes);
  const std::size_t nru = 2 * cy + 1;
  double* by = arena.buf(ScratchArena::kBlurY, nru);
  for (std::size_t c = 0; c < lane_tiles(nbu) * kLanes; ++c) {
    const double fx = static_cast<double>(band_freq(c, cx)) * l.grid.dfx;
    bx[c] = c >= nbu              ? 0.0
            : blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fx * fx)
                                  : 1.0;
  }
  for (std::size_t r = 0; r < nru; ++r) {
    const double fy = static_cast<double>(band_freq(r, cy)) * l.grid.dfy;
    by[r] = blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fy * fy) : 1.0;
  }
  const std::size_t up_size = lane_tiles(nbu) * ny * kLanes;
  double* up_re = arena.buf(ScratchArena::kUpWorkRe, up_size);
  double* up_im = arena.buf(ScratchArena::kUpWorkIm, up_size);
  for (std::size_t t = 0; t < lane_tiles(nbu); ++t) {
    double* ur = up_re + t * ny * kLanes;
    double* ui = up_im + t * ny * kLanes;
    zero_band_gap(ur, ui, cy, ny);
    for (std::size_t r = 0; r < nru; ++r) {
      const long long v = band_freq(r, cy);
      const double wy = l.up_scale * by[r];
      const double* POC_RESTRICT cr =
          coarse_re + (t * ncy + freq_slot(v, ncy)) * kLanes;
      const double* POC_RESTRICT ci =
          coarse_im + (t * ncy + freq_slot(v, ncy)) * kLanes;
      double* POC_RESTRICT dr = ur + freq_slot(v, ny) * kLanes;
      double* POC_RESTRICT di = ui + freq_slot(v, ny) * kLanes;
      const double* POC_RESTRICT f = bx + t * kLanes;
      // VEC-LOOP(blur-scatter): coarse * (wy * bx) per band-column lane.
#pragma GCC unroll 1
      for (std::size_t w = 0; w < kLanes; ++w) {
        const double s = wy * f[w];
        dr[w] = cr[w] * s;
        di[w] = ci[w] * s;
      }
    }
    fft_soa(ur, ui, ny, /*inverse=*/true, kLanes);
  }
  double* out = result.data().data();
  for (std::size_t p0 = 0; p0 < pairs; p0 += kLanes) {
    const std::size_t nw = std::min(kLanes, pairs - p0);
    std::fill(row_re, row_re + nx * kLanes, 0.0);
    std::fill(row_im, row_im + nx * kLanes, 0.0);
    for (std::size_t c = 0; c < nbu; ++c) {
      const std::size_t x = band_column_storage(c, nx, cx);
      const std::size_t at = tile_offset(c, 2 * p0, ny);
      for (std::size_t w = 0; w < nw; ++w) {
        // w0 + Cplx(0.0, 1.0) * w1, the naive complex product.
        const double* w0r = up_re + at + 2 * w * kLanes;
        const double* w0i = up_im + at + 2 * w * kLanes;
        const double w1r = w0r[kLanes];
        const double w1i = w0i[kLanes];
        row_re[x * kLanes + w] = w0r[0] + (0.0 * w1r - 1.0 * w1i);
        row_im[x * kLanes + w] = w0i[0] + (0.0 * w1i + 1.0 * w1r);
      }
    }
    fft_soa(row_re, row_im, nx, /*inverse=*/true, kLanes);
    for (std::size_t w = 0; w < nw; ++w) {
      double* y0 = out + 2 * (p0 + w) * nx;
      double* y1 = y0 + nx;
      for (std::size_t x = 0; x < nx; ++x) {
        y0[x] = row_re[x * kLanes + w];
        y1[x] = row_im[x * kLanes + w];
      }
    }
  }
}

}  // namespace

Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source,
                             const ImagingOptions& imaging,
                             ScratchArena& arena) {
  const std::size_t nx = mask.nx();
  const std::size_t ny = mask.ny();
  POC_EXPECTS(is_pow2(nx) && is_pow2(ny) && nx >= 2 && ny >= 2);
  const CropLayout l = crop_layout(nx, ny, mask.pixel(), opt);
  Image2D result(nx, ny, mask.pixel(), mask.origin_x(), mask.origin_y());
  if (imaging.mode == ImagingMode::kAbbe) {
    abbe_aerial_image(mask, opt, defocus_nm, blur_sigma_nm, source, l, arena,
                      result);
  } else {
    socs_aerial_image(mask, opt, defocus_nm, blur_sigma_nm, source,
                      imaging.socs, l, arena, result);
  }
  return result;
}

Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source,
                             const ImagingOptions& imaging) {
  return aerial_image_blurred(mask, opt, defocus_nm, blur_sigma_nm, source,
                              imaging, tls_scratch_arena());
}

Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source) {
  return aerial_image_blurred(mask, opt, defocus_nm, blur_sigma_nm, source,
                              ImagingOptions{});
}

Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm) {
  return aerial_image_blurred(mask, opt, defocus_nm, blur_sigma_nm,
                              sample_source(opt));
}

Image2D aerial_image(const Image2D& mask, const OpticalSettings& opt,
                     double defocus_nm,
                     const std::vector<SourcePoint>& source) {
  return aerial_image_blurred(mask, opt, defocus_nm, 0.0, source);
}

Image2D aerial_image(const Image2D& mask, const OpticalSettings& opt,
                     double defocus_nm) {
  return aerial_image_blurred(mask, opt, defocus_nm, 0.0);
}

}  // namespace poc
