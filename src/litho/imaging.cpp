#include "src/litho/imaging.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <type_traits>

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

/// Frequency-domain accessor for a row-major spectrum: signed index ->
/// storage index.
std::size_t spec_index(long long kx, long long ky, std::size_t nx,
                       std::size_t ny) {
  return freq_slot(ky, ny) * nx + freq_slot(kx, nx);
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

/// Accumulates one coherent system of the generic SOCS path: scatter the
/// band-limited filtered spectrum onto the coarse grid, band-inverse
/// transform, add weight * |E|^2.
void accumulate_coherent(const std::vector<Cplx>& spectrum,
                         const std::vector<Cplx>& table, double weight,
                         const CropLayout& l, std::vector<Cplx>& field,
                         std::vector<double>& intensity) {
  const SpectralGrid& grid = l.grid;
  std::fill(field.begin(), field.end(), Cplx(0.0, 0.0));
  std::size_t idx = 0;
  for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
    for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx) {
      const Cplx p = table[idx++];
      if (p == Cplx(0.0, 0.0)) continue;
      field[spec_index(kx, ky, l.ncx, l.ncy)] =
          spectrum[spec_index(kx, ky, l.nx, l.ny)] * p * l.crop_scale;
    }
  }
  fft_2d_band_inverse(field, l.ncx, l.ncy,
                      static_cast<std::size_t>(grid.kx_max));
  for (std::size_t i = 0; i < l.ncx * l.ncy; ++i) {
    intensity[i] += weight * std::norm(field[i]);
  }
}

// --- Abbe engine: in-window lanes -----------------------------------------
//
// Every transform runs kLanes independent spans at once through fft_soa,
// and each lane replays the scalar fft_span operation sequence, so the
// image is bit-identical to transforming one span at a time.  The lane is
// the mask row, then the band column, of the forward transform; the source
// point on the coarse grid; and the spectrum row, then the image column, of
// the upsample.  Between a row pass and its column pass the data sits in
// column tiles: element e of column c at [((c / kLanes) * len + e) *
// kLanes + c % kLanes], so each tile's column pass works on contiguous
// memory.  Rows that are entirely +0 (|ky| beyond the band) are never
// transformed: every butterfly of a +0 span adds or subtracts a signed-zero
// product to u = +0, which rounds to +0, so skipping them changes no bit.

constexpr std::size_t kLanes = 4;

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
  fft_soa(row_re, row_im, n, inverse, kLanes, kLanes);
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
            /*inverse=*/false, kLanes, kLanes);
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
              /*inverse=*/true, kLanes, nr * kLanes);
    }
    for (std::size_t x = 0; x < ncx; ++x) {
      expand_band_column(field_re + x * nr * kLanes,
                         field_im + x * nr * kLanes,
                         static_cast<std::size_t>(ky_max), ncy, col_re, col_im);
      fft_soa(col_re, col_im, ncy, /*inverse=*/true, kLanes, kLanes);
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
            /*inverse=*/false, kLanes, kLanes);
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
    fft_soa(col_re, col_im, ny, /*inverse=*/true, kLanes, kLanes);
    const std::size_t x0 = t * kLanes;
    const std::size_t nw = std::min(kLanes, nx - x0);
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t w = 0; w < nw; ++w) {
        out[y * nx + x0 + w] = col_re[y * kLanes + w];
      }
    }
  }
}

}  // namespace

Image2D aerial_image_blurred(const Image2D& mask, const OpticalSettings& opt,
                             double defocus_nm, double blur_sigma_nm,
                             const std::vector<SourcePoint>& source,
                             const ImagingOptions& imaging) {
  const std::size_t nx = mask.nx();
  const std::size_t ny = mask.ny();
  POC_EXPECTS(is_pow2(nx) && is_pow2(ny) && nx >= 2 && ny >= 2);
  const CropLayout l = crop_layout(nx, ny, mask.pixel(), opt);
  const SpectralGrid& grid = l.grid;
  const std::size_t ncx = l.ncx;
  const std::size_t ncy = l.ncy;
  Image2D result(nx, ny, mask.pixel(), mask.origin_x(), mask.origin_y());
  if (imaging.mode == ImagingMode::kAbbe) {
    abbe_aerial_image(mask, opt, defocus_nm, blur_sigma_nm, source, l,
                      tls_scratch_arena(), result);
    return result;
  }

  // SOCS: the mask spectrum's |kx| <= kx_max columns from packed real
  // rows, then one coherent system per retained TCC kernel, accumulated on
  // the coarse grid in fixed kernel order.
  const std::vector<Cplx> spectrum = rfft_2d_band(
      mask.data(), nx, ny, static_cast<std::size_t>(grid.kx_max));
  std::vector<double> intensity(ncx * ncy, 0.0);
  std::vector<Cplx> field(ncx * ncy);
  const double crop_scale = l.crop_scale;
  const std::shared_ptr<const SocsKernels> kernels =
      socs_kernels(opt, source, defocus_nm, grid, imaging.socs);
  if (kernels->parity_packable()) {
    // Parity-pure real kernels (nominal focus, no aberrations): each
    // kernel's filtered spectrum M*phi is Hermitian — directly for even
    // kernels, after an -i twist for odd ones (whose fields are purely
    // imaginary, so the twist rotates them onto the real axis without
    // changing |E|^2).  Two Hermitian spectra ride one complex inverse
    // transform as its real and imaginary parts, halving the per-kernel
    // transform count with no truncation error.
    const std::size_t nk = kernels->kernels.size();
    for (std::size_t k = 0; k < nk; k += 2) {
      const bool pair = k + 1 < nk;
      std::fill(field.begin(), field.end(), Cplx(0.0, 0.0));
      const std::vector<Cplx>& phi1 = kernels->kernels[k];
      const std::vector<Cplx>* phi2 = pair ? &kernels->kernels[k + 1] : nullptr;
      const bool odd1 = kernels->parity[k] == 2;
      const bool odd2 = pair && kernels->parity[k + 1] == 2;
      std::size_t idx = 0;
      for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
        for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx, ++idx) {
          const Cplx m =
              spectrum[spec_index(kx, ky, nx, ny)] * crop_scale;
          Cplx h1 = m * phi1[idx].real();
          if (odd1) h1 = Cplx(h1.imag(), -h1.real());
          Cplx h2(0.0, 0.0);
          if (pair) {
            h2 = m * (*phi2)[idx].real();
            if (odd2) h2 = Cplx(h2.imag(), -h2.real());
          }
          field[spec_index(kx, ky, ncx, ncy)] =
              Cplx(h1.real() - h2.imag(), h1.imag() + h2.real());
        }
      }
      fft_2d_band_inverse(field, ncx, ncy,
                          static_cast<std::size_t>(grid.kx_max));
      const double w1 = kernels->weights[k];
      if (pair) {
        const double w2 = kernels->weights[k + 1];
        for (std::size_t i = 0; i < ncx * ncy; ++i) {
          const double re = field[i].real();
          const double im = field[i].imag();
          intensity[i] += w1 * re * re + w2 * im * im;
        }
      } else {
        for (std::size_t i = 0; i < ncx * ncy; ++i) {
          const double re = field[i].real();
          intensity[i] += w1 * re * re;
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < kernels->kernels.size(); ++k) {
      accumulate_coherent(spectrum, kernels->kernels[k], kernels->weights[k],
                          l, field, intensity);
    }
  }

  // Upsample the band-limited intensity to the mask grid through the
  // frequency domain (exact), applying the resist diffusion blur in the
  // same pass.
  std::vector<Cplx> coarse_spec(ncx * ncy);
  for (std::size_t i = 0; i < ncx * ncy; ++i) coarse_spec[i] = intensity[i];
  fft_2d(coarse_spec, ncx, ncy, /*inverse=*/false);

  const double two_pi2_s2 = blur_exponent_scale(blur_sigma_nm);
  const long long cx = l.cx;
  const long long cy = l.cy;
  // The irfft below only reads the band columns, and every band entry is
  // rewritten each call, so the full-grid spectrum can live in a
  // persistent per-worker buffer (the thread's ScratchArena): only a
  // geometry change pays the full-size zeroing again.
  ScratchArena::UpsampleSpec& scratch = tls_scratch_arena().upsample_spec();
  if (scratch.nx != nx || scratch.ny != ny || scratch.cx != cx ||
      scratch.cy != cy) {
    scratch.nx = nx;
    scratch.ny = ny;
    scratch.cx = cx;
    scratch.cy = cy;
    scratch.spec.assign(nx * ny, Cplx(0.0, 0.0));
  }
  // Separable blur factors keep exp() out of the inner loop (SOCS only:
  // the Abbe engine keeps the fused exponent so its rounding stays exactly
  // as the reference has always computed it).
  std::vector<double> bx(static_cast<std::size_t>(2 * cx + 1));
  std::vector<double> by(static_cast<std::size_t>(2 * cy + 1));
  for (long long kx = -cx; kx <= cx; ++kx) {
    const double fx = static_cast<double>(kx) * grid.dfx;
    bx[static_cast<std::size_t>(kx + cx)] =
        blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fx * fx) : 1.0;
  }
  for (long long ky = -cy; ky <= cy; ++ky) {
    const double fy = static_cast<double>(ky) * grid.dfy;
    by[static_cast<std::size_t>(ky + cy)] =
        blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fy * fy) : 1.0;
  }
  for (long long ky = -cy; ky <= cy; ++ky) {
    const double wy = l.up_scale * by[static_cast<std::size_t>(ky + cy)];
    for (long long kx = -cx; kx <= cx; ++kx) {
      scratch.spec[spec_index(kx, ky, nx, ny)] =
          coarse_spec[spec_index(kx, ky, ncx, ncy)] *
          (wy * bx[static_cast<std::size_t>(kx + cx)]);
    }
  }
  // The intensity spectrum is Hermitian (intensity is real), so the
  // upsampling inverse can pack two real output rows per transform.
  const std::vector<double> real_img = irfft_2d_band(
      scratch.spec, nx, ny, static_cast<std::size_t>(cx < 0 ? 0 : cx));
  for (std::size_t i = 0; i < nx * ny; ++i) result.data()[i] = real_img[i];
  return result;
}

// --- Batched SOCS engine -------------------------------------------------
//
// Lane-parallel mirror of the scalar kSocs branch above.  Each helper
// transcribes the scalar complex arithmetic as the compiler's naive
// expansion (4-multiply products, componentwise real scaling) so every
// lane's floating-point sequence — including signed zeros — matches the
// scalar path bit for bit; see the determinism notes in src/common/fft.h.

namespace {

/// One parity-packed kernel pair applied to the batch: the scalar loop body
/// (m = M * crop_scale; h = m * phi.real(); odd twist; Hermitian packing)
/// widened across lanes.  pair/odd flags are uniform per kernel, so they
/// template-dispatch out of the lane loop.
template <bool kHasPair, bool kOdd1, bool kOdd2>
void socs_apply_pair_lanes(const double* spec_re, const double* spec_im,
                           std::size_t lanes, std::size_t nx, std::size_t ny,
                           const SpectralGrid& grid, std::size_t ncx,
                           std::size_t ncy, double crop_scale,
                           const Cplx* phi1, const Cplx* phi2,
                           double* field_re, double* field_im) {
  const std::size_t nb = 2 * static_cast<std::size_t>(grid.kx_max) + 1;
  (void)nx;
  std::size_t idx = 0;
  for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
    const std::size_t ys =
        ky >= 0 ? static_cast<std::size_t>(ky) : ny - static_cast<std::size_t>(-ky);
    for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx, ++idx) {
      const double p1 = phi1[idx].real();
      const double p2 = kHasPair ? phi2[idx].real() : 0.0;
      const std::size_t c = kx >= 0 ? static_cast<std::size_t>(kx)
                                    : static_cast<std::size_t>(kx) + nb;
      const double* POC_RESTRICT sr = spec_re + (c * ny + ys) * lanes;
      const double* POC_RESTRICT si = spec_im + (c * ny + ys) * lanes;
      const std::size_t fidx = spec_index(kx, ky, ncx, ncy);
      double* POC_RESTRICT fr = field_re + fidx * lanes;
      double* POC_RESTRICT fi = field_im + fidx * lanes;
      // VEC-LOOP(socs-kernel-apply): independent window lanes of the scalar
      // kernel-application body.
      for (std::size_t w = 0; w < lanes; ++w) {
        const double mr = sr[w] * crop_scale;
        const double mi = si[w] * crop_scale;
        const double t1r = mr * p1;
        const double t1i = mi * p1;
        const double h1r = kOdd1 ? t1i : t1r;
        const double h1i = kOdd1 ? -t1r : t1i;
        if constexpr (kHasPair) {
          const double t2r = mr * p2;
          const double t2i = mi * p2;
          const double h2r = kOdd2 ? t2i : t2r;
          const double h2i = kOdd2 ? -t2r : t2i;
          fr[w] = h1r - h2i;
          fi[w] = h1i + h2r;
        } else {
          // Scalar path: h2 stays Cplx(0.0, 0.0) — keep the literal +0.0
          // operations so signed zeros round-trip identically.
          fr[w] = h1r - 0.0;
          fi[w] = h1i + 0.0;
        }
      }
    }
  }
}

void socs_apply_pair_lanes_dispatch(const double* spec_re,
                                    const double* spec_im, std::size_t lanes,
                                    std::size_t nx, std::size_t ny,
                                    const SpectralGrid& grid, std::size_t ncx,
                                    std::size_t ncy, double crop_scale,
                                    bool pair, bool odd1, bool odd2,
                                    const Cplx* phi1, const Cplx* phi2,
                                    double* field_re, double* field_im) {
  const auto call = [&](auto has_pair, auto o1, auto o2) {
    socs_apply_pair_lanes<decltype(has_pair)::value, decltype(o1)::value,
                          decltype(o2)::value>(spec_re, spec_im, lanes, nx, ny,
                                               grid, ncx, ncy, crop_scale,
                                               phi1, phi2, field_re, field_im);
  };
  using T = std::true_type;
  using F = std::false_type;
  if (pair) {
    if (odd1) {
      odd2 ? call(T{}, T{}, T{}) : call(T{}, T{}, F{});
    } else {
      odd2 ? call(T{}, F{}, T{}) : call(T{}, F{}, F{});
    }
  } else {
    odd1 ? call(F{}, T{}, F{}) : call(F{}, F{}, F{});
  }
}

/// Generic (non-parity-packed) kernel application: the accumulate_coherent
/// scatter loop widened across lanes.  The p == 0 skip is uniform per
/// spectral sample, so skipped entries stay at the batch-wide zero fill.
void socs_apply_generic_lanes(const double* spec_re, const double* spec_im,
                              std::size_t lanes, std::size_t ny,
                              const SpectralGrid& grid, std::size_t ncx,
                              std::size_t ncy, double crop_scale,
                              const Cplx* table, double* field_re,
                              double* field_im) {
  const std::size_t nb = 2 * static_cast<std::size_t>(grid.kx_max) + 1;
  std::size_t idx = 0;
  for (long long ky = -grid.ky_max; ky <= grid.ky_max; ++ky) {
    const std::size_t ys =
        ky >= 0 ? static_cast<std::size_t>(ky) : ny - static_cast<std::size_t>(-ky);
    for (long long kx = -grid.kx_max; kx <= grid.kx_max; ++kx) {
      const Cplx p = table[idx++];
      if (p == Cplx(0.0, 0.0)) continue;
      const double pr = p.real();
      const double pi = p.imag();
      const std::size_t c = kx >= 0 ? static_cast<std::size_t>(kx)
                                    : static_cast<std::size_t>(kx) + nb;
      const double* POC_RESTRICT sr = spec_re + (c * ny + ys) * lanes;
      const double* POC_RESTRICT si = spec_im + (c * ny + ys) * lanes;
      const std::size_t fidx = spec_index(kx, ky, ncx, ncy);
      double* POC_RESTRICT fr = field_re + fidx * lanes;
      double* POC_RESTRICT fi = field_im + fidx * lanes;
      for (std::size_t w = 0; w < lanes; ++w) {
        // spectrum * p (naive complex product), then * crop_scale.
        const double vr = sr[w] * pr - si[w] * pi;
        const double vi = sr[w] * pi + si[w] * pr;
        fr[w] = vr * crop_scale;
        fi[w] = vi * crop_scale;
      }
    }
  }
}

}  // namespace

void aerial_image_blurred_socs_batch(const Image2D* const* masks,
                                     std::size_t count,
                                     const OpticalSettings& opt,
                                     double defocus_nm, double blur_sigma_nm,
                                     const std::vector<SourcePoint>& source,
                                     const SocsOptions& socs,
                                     ScratchArena& arena, Image2D* out) {
  POC_EXPECTS(count > 0);
  const std::size_t lanes = count;
  const std::size_t nx = masks[0]->nx();
  const std::size_t ny = masks[0]->ny();
  const double pixel = masks[0]->pixel();
  POC_EXPECTS(is_pow2(nx) && is_pow2(ny));
  for (std::size_t w = 1; w < count; ++w) {
    POC_EXPECTS(masks[w]->nx() == nx && masks[w]->ny() == ny &&
                masks[w]->pixel() == pixel);
  }

  // Spectral layout: the same arithmetic on the same inputs as the scalar
  // path, so every derived quantity (and the memoized kernel set) matches.
  const CropLayout l = crop_layout(nx, ny, pixel, opt);
  const SpectralGrid& grid = l.grid;
  const long long kx_max = grid.kx_max;
  const std::size_t ncx = l.ncx;
  const std::size_t ncy = l.ncy;

  const std::shared_ptr<const SocsKernels> kernels =
      socs_kernels(opt, source, defocus_nm, grid, socs);

  // Shared per-call setup: blur factor tables and the persistent upsample
  // spectrum (sized for the whole batch; each tile below owns a contiguous
  // nbu*ny*nw slice of it).
  const std::size_t nb = 2 * static_cast<std::size_t>(kx_max) + 1;
  const std::size_t nc = ncx * ncy;
  const double crop_scale = l.crop_scale;
  const double up_scale = l.up_scale;
  const double two_pi2_s2 = blur_exponent_scale(blur_sigma_nm);
  const double dfx = grid.dfx;
  const double dfy = grid.dfy;
  const long long cx = l.cx;
  const long long cy = l.cy;
  std::vector<double>& bx = arena.blur_x();
  std::vector<double>& by = arena.blur_y();
  bx.resize(static_cast<std::size_t>(2 * cx + 1));
  by.resize(static_cast<std::size_t>(2 * cy + 1));
  for (long long kx = -cx; kx <= cx; ++kx) {
    const double fx = static_cast<double>(kx) * dfx;
    bx[static_cast<std::size_t>(kx + cx)] =
        blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fx * fx) : 1.0;
  }
  for (long long ky = -cy; ky <= cy; ++ky) {
    const double fy = static_cast<double>(ky) * dfy;
    by[static_cast<std::size_t>(ky + cy)] =
        blur_sigma_nm > 0.0 ? std::exp(-two_pi2_s2 * fy * fy) : 1.0;
  }
  const std::size_t kxu = static_cast<std::size_t>(cx < 0 ? 0 : cx);
  const std::size_t nbu = 2 * kxu + 1;

  // The batch runs in fixed-width lane tiles: kTileLanes doubles is one
  // AVX2 vector, so every inner lane loop fills a SIMD register, while the
  // per-tile working set (field + intensity + the touched band rows of the
  // tile spectrum, ~1.6 MiB at fine quality) stays cache-resident the way
  // the scalar path's per-window buffers do — full-batch-wide buffers
  // would stream through L2 on every butterfly stage instead.  Tiling only
  // partitions the independent lane dimension, so results stay
  // bit-identical for every tile width.
  constexpr std::size_t kTileLanes = 4;
  for (std::size_t w0 = 0; w0 < lanes; w0 += kTileLanes) {
    const std::size_t nw = std::min(kTileLanes, lanes - w0);

    // Pack: batched real-input band transform of the tile's masks.
    double* row_re = arena.buf(ScratchArena::kRowRe, nx * nw);
    double* row_im = arena.buf(ScratchArena::kRowIm, nx * nw);
    double* spec_re = arena.buf(ScratchArena::kSpecRe, nb * ny * nw);
    double* spec_im = arena.buf(ScratchArena::kSpecIm, nb * ny * nw);
    std::vector<const double*>& src = arena.src_ptrs();
    src.resize(nw);
    for (std::size_t w = 0; w < nw; ++w) src[w] = masks[w0 + w]->data().data();
    rfft_2d_band_soa(src.data(), nw, nx, ny, static_cast<std::size_t>(kx_max),
                     spec_re, spec_im, row_re, row_im);

    // Compute: coherent systems accumulate on the coarse grid in fixed
    // kernel order, each one a tile-wide zero fill + scatter + band inverse
    // + add.
    double* intensity = arena.buf(ScratchArena::kIntensity, nc * nw);
    double* field_re = arena.buf(ScratchArena::kFieldRe, nc * nw);
    double* field_im = arena.buf(ScratchArena::kFieldIm, nc * nw);
    std::fill(intensity, intensity + nc * nw, 0.0);

    if (kernels->parity_packable()) {
      const std::size_t nk = kernels->kernels.size();
      for (std::size_t k = 0; k < nk; k += 2) {
        const bool pair = k + 1 < nk;
        std::fill(field_re, field_re + nc * nw, 0.0);
        std::fill(field_im, field_im + nc * nw, 0.0);
        const bool odd1 = kernels->parity[k] == 2;
        const bool odd2 = pair && kernels->parity[k + 1] == 2;
        socs_apply_pair_lanes_dispatch(
            spec_re, spec_im, nw, nx, ny, grid, ncx, ncy, crop_scale, pair,
            odd1, odd2, kernels->kernels[k].data(),
            pair ? kernels->kernels[k + 1].data() : nullptr, field_re,
            field_im);
        fft_2d_band_inverse_soa(field_re, field_im, ncx, ncy,
                                static_cast<std::size_t>(grid.kx_max), nw);
        const double w1 = kernels->weights[k];
        double* POC_RESTRICT acc = intensity;
        const double* POC_RESTRICT fr = field_re;
        const double* POC_RESTRICT fi = field_im;
        if (pair) {
          const double w2 = kernels->weights[k + 1];
          for (std::size_t j = 0; j < nc * nw; ++j) {
            acc[j] += w1 * fr[j] * fr[j] + w2 * fi[j] * fi[j];
          }
        } else {
          for (std::size_t j = 0; j < nc * nw; ++j) {
            acc[j] += w1 * fr[j] * fr[j];
          }
        }
      }
    } else {
      for (std::size_t k = 0; k < kernels->kernels.size(); ++k) {
        std::fill(field_re, field_re + nc * nw, 0.0);
        std::fill(field_im, field_im + nc * nw, 0.0);
        socs_apply_generic_lanes(spec_re, spec_im, nw, ny, grid, ncx, ncy,
                                 crop_scale, kernels->kernels[k].data(),
                                 field_re, field_im);
        fft_2d_band_inverse_soa(field_re, field_im, ncx, ncy,
                                static_cast<std::size_t>(grid.kx_max), nw);
        const double weight = kernels->weights[k];
        double* POC_RESTRICT acc = intensity;
        const double* POC_RESTRICT fr = field_re;
        const double* POC_RESTRICT fi = field_im;
        for (std::size_t j = 0; j < nc * nw; ++j) {
          acc[j] += weight * (fr[j] * fr[j] + fi[j] * fi[j]);
        }
      }
    }

    // Upsample + blur: forward transform of the coarse intensity, then a
    // separable-blur scatter straight into the compact band spectrum the
    // inverse below consumes in place.  The scatter rewrites every band
    // entry within blur reach (rows 0..cy and ny-cy..ny-1 of each band
    // column) and the fill covers the rows beyond reach, so the whole
    // spectrum is rebuilt each call — no persistent zero-padded buffer,
    // and none of the multi-MiB defensive copy irfft_2d_band_soa would
    // make of one.
    double* coarse_re = arena.buf(ScratchArena::kCoarseRe, nc * nw);
    double* coarse_im = arena.buf(ScratchArena::kCoarseIm, nc * nw);
    for (std::size_t j = 0; j < nc * nw; ++j) {
      coarse_re[j] = intensity[j];
      coarse_im[j] = 0.0;
    }
    fft_2d_soa(coarse_re, coarse_im, ncx, ncy, /*inverse=*/false, nw);

    double* const up_re = arena.buf(ScratchArena::kUpWorkRe, nbu * ny * nw);
    double* const up_im = arena.buf(ScratchArena::kUpWorkIm, nbu * ny * nw);
    const std::size_t mid_lo = static_cast<std::size_t>(cy) + 1;
    const std::size_t mid_rows = ny - (2 * static_cast<std::size_t>(cy) + 1);
    for (std::size_t c = 0; c < nbu; ++c) {
      double* mr = up_re + (c * ny + mid_lo) * nw;
      double* mi = up_im + (c * ny + mid_lo) * nw;
      std::fill(mr, mr + mid_rows * nw, 0.0);
      std::fill(mi, mi + mid_rows * nw, 0.0);
    }
    for (long long ky = -cy; ky <= cy; ++ky) {
      const double wy = up_scale * by[static_cast<std::size_t>(ky + cy)];
      const std::size_t ys = ky >= 0 ? static_cast<std::size_t>(ky)
                                     : ny - static_cast<std::size_t>(-ky);
      for (long long kx = -cx; kx <= cx; ++kx) {
        const double f = wy * bx[static_cast<std::size_t>(kx + cx)];
        const std::size_t c = kx >= 0 ? static_cast<std::size_t>(kx)
                                      : static_cast<std::size_t>(kx) + nbu;
        const std::size_t sidx = spec_index(kx, ky, ncx, ncy);
        const double* POC_RESTRICT cr = coarse_re + sidx * nw;
        const double* POC_RESTRICT ci = coarse_im + sidx * nw;
        double* POC_RESTRICT ur = up_re + (c * ny + ys) * nw;
        double* POC_RESTRICT ui = up_im + (c * ny + ys) * nw;
        // VEC-LOOP(blur-scatter): componentwise coarse * (wy * bx) per lane.
        for (std::size_t w = 0; w < nw; ++w) {
          ur[w] = cr[w] * f;
          ui[w] = ci[w] * f;
        }
      }
    }

    // Unpack: batched Hermitian inverse straight into the tile's output
    // images, in window-index order.
    std::vector<double*>& dst = arena.dst_ptrs();
    dst.resize(nw);
    for (std::size_t w = 0; w < nw; ++w) {
      const Image2D& mk = *masks[w0 + w];
      Image2D& o = out[w0 + w];
      if (o.nx() != nx || o.ny() != ny || o.pixel() != mk.pixel() ||
          o.origin_x() != mk.origin_x() || o.origin_y() != mk.origin_y()) {
        o = Image2D(nx, ny, mk.pixel(), mk.origin_x(), mk.origin_y());
      }
      dst[w] = o.data().data();
    }
    irfft_2d_band_soa_inplace(up_re, up_im, nw, nx, ny, kxu, row_re, row_im,
                              dst.data());
  }
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
