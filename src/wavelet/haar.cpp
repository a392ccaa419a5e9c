#include "wavelet/haar.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::wavelet {

namespace {

void check_geometry(int width, int height, int levels) {
  if (levels < 1 || levels > 12) {
    throw std::invalid_argument(
        util::format("pyramid levels must be in [1, 12], got {}", levels));
  }
  if (width <= 0 || height <= 0 || width % (1 << levels) != 0 ||
      height % (1 << levels) != 0) {
    throw std::invalid_argument(util::format(
        "image {}x{} not divisible by 2^{}", width, height, levels));
  }
}

/// One forward 2-D Haar step on the top-left `w x h` region of `work`
/// (stride `stride`); leaves LL in the top-left quadrant and the three
/// detail quadrants beside/below it.
///
/// `scratch` must hold at least w*h values and is reused across levels (a
/// single allocation per transform).  Both passes walk rows through
/// pointers: the column lift reads the two *input rows* of each output row
/// pair sequentially instead of striding down one column at a time, so the
/// whole step is sequential in memory — no per-pixel y*stride+x
/// re-multiplication anywhere.  The arithmetic is element-for-element that
/// of the textbook loops, so coefficients are bit-identical.
void forward_step(std::int32_t* work, int stride, int w, int h,
                  std::int32_t* scratch) {
  const int half_w = w / 2;
  const int half_h = h / 2;
  // Rows: averages into the left half, differences into the right.
  for (int y = 0; y < h; ++y) {
    std::int32_t* base = work + static_cast<std::size_t>(y) * stride;
    const std::int32_t* in = base;
    for (int x = 0; x < half_w; ++x) {
      std::int32_t x0 = in[0], x1 = in[1];
      in += 2;
      scratch[x] = (x0 + x1) >> 1;       // average
      scratch[half_w + x] = x0 - x1;     // difference
    }
    std::copy(scratch, scratch + w, base);
  }
  // Columns, walked row-wise: row pair (2y, 2y+1) -> average row y and
  // difference row half_h + y, assembled in scratch then copied back.
  for (int y = 0; y < half_h; ++y) {
    const std::int32_t* r0 = work + static_cast<std::size_t>(2 * y) * stride;
    const std::int32_t* r1 = r0 + stride;
    std::int32_t* avg = scratch + static_cast<std::size_t>(y) * w;
    std::int32_t* dif = scratch + static_cast<std::size_t>(half_h + y) * w;
    for (int x = 0; x < w; ++x) {
      avg[x] = (r0[x] + r1[x]) >> 1;
      dif[x] = r0[x] - r1[x];
    }
  }
  for (int y = 0; y < h; ++y) {
    const std::int32_t* src = scratch + static_cast<std::size_t>(y) * w;
    std::copy(src, src + w, work + static_cast<std::size_t>(y) * stride);
  }
}

/// One inverse 2-D Haar step: quadrants -> interleaved image of `w x h`.
/// Same contract as forward_step (scratch >= w*h, bit-identical results).
void inverse_step(std::int32_t* work, int stride, int w, int h,
                  std::int32_t* scratch) {
  const int half_w = w / 2;
  const int half_h = h / 2;
  // Columns first (inverse of forward's column pass), walked row-wise:
  // average row y + difference row half_h + y -> output rows 2y and 2y+1.
  for (int y = 0; y < half_h; ++y) {
    const std::int32_t* a_row = work + static_cast<std::size_t>(y) * stride;
    const std::int32_t* d_row =
        work + static_cast<std::size_t>(half_h + y) * stride;
    std::int32_t* o0 = scratch + static_cast<std::size_t>(2 * y) * w;
    std::int32_t* o1 = o0 + w;
    for (int x = 0; x < w; ++x) {
      std::int32_t d = d_row[x];
      std::int32_t x0 = a_row[x] + ((d + 1) >> 1);
      o0[x] = x0;
      o1[x] = x0 - d;
    }
  }
  for (int y = 0; y < h; ++y) {
    const std::int32_t* src = scratch + static_cast<std::size_t>(y) * w;
    std::copy(src, src + w, work + static_cast<std::size_t>(y) * stride);
  }
  // Rows (scratch's first row doubles as the per-row pair buffer).
  for (int y = 0; y < h; ++y) {
    std::int32_t* base = work + static_cast<std::size_t>(y) * stride;
    for (int x = 0; x < half_w; ++x) {
      std::int32_t d = base[half_w + x];
      std::int32_t x0 = base[x] + ((d + 1) >> 1);
      scratch[2 * x] = x0;
      scratch[2 * x + 1] = x0 - d;
    }
    std::copy(scratch, scratch + w, base);
  }
}

/// Copy `band` into `frame` (row stride `stride`) with its top-left
/// coefficient at column `x0`, row `y0`.  An unallocated band reads as
/// zero, and so does the frame there: reconstruction writes no band's
/// window before it lays the band in, so the copy is skipped.
void place(const Band& band, std::int32_t* frame, int stride, int x0,
           int y0) {
  if (band.coeffs.empty()) return;
  for (int y = 0; y < band.height; ++y) {
    const std::int16_t* src =
        band.coeffs.data() + static_cast<std::size_t>(y) * band.width;
    std::copy(src, src + band.width,
              frame + static_cast<std::size_t>(y0 + y) * stride + x0);
  }
}

}  // namespace

Pyramid::Pyramid(int width, int height, int levels)
    : width_(width), height_(height), levels_(levels) {
  check_geometry(width, height, levels);
  ll_.width = width >> levels;
  ll_.height = height >> levels;
  details_.resize(static_cast<std::size_t>(levels));
  for (int k = 1; k <= levels; ++k) {
    for (Band& band : details_[k - 1]) {
      band.width = width >> (levels - k + 1);
      band.height = height >> (levels - k + 1);
    }
  }
}

Pyramid::Pyramid(const Image& image, int levels)
    : Pyramid(image.width(), image.height(), levels) {
  // Full forward transform in an int32 working frame, then split quadrants
  // into bands, each allocated once.  One scratch buffer serves every
  // level's lifting step.
  std::vector<std::int32_t> work(
      static_cast<std::size_t>(width_) * height_);
  std::vector<std::int32_t> scratch(work.size());
  const std::uint8_t* pixels = image.pixels().data();
  for (std::size_t i = 0; i < work.size(); ++i) work[i] = pixels[i];
  int w = width_, h = height_;
  for (int step = 0; step < levels; ++step) {
    forward_step(work.data(), width_, w, h, scratch.data());
    // The detail quadrants produced by this step correspond to
    // reconstruction level k = levels - step.
    int k = levels_ - step;
    Band& lh = details_[k - 1][static_cast<int>(Orientation::kLH)];
    Band& hl = details_[k - 1][static_cast<int>(Orientation::kHL)];
    Band& hh = details_[k - 1][static_cast<int>(Orientation::kHH)];
    const int half_w = w / 2, half_h = h / 2;
    for (Band* band : {&lh, &hl, &hh}) {
      band->coeffs.resize(static_cast<std::size_t>(half_w) * half_h);
    }
    for (int y = 0; y < half_h; ++y) {
      const std::int32_t* top =
          work.data() + static_cast<std::size_t>(y) * width_;
      const std::int32_t* bot =
          work.data() + static_cast<std::size_t>(half_h + y) * width_;
      std::int16_t* hl_row = hl.coeffs.data() +
                             static_cast<std::size_t>(y) * half_w;
      std::int16_t* lh_row = lh.coeffs.data() +
                             static_cast<std::size_t>(y) * half_w;
      std::int16_t* hh_row = hh.coeffs.data() +
                             static_cast<std::size_t>(y) * half_w;
      for (int x = 0; x < half_w; ++x) {
        hl_row[x] = static_cast<std::int16_t>(top[half_w + x]);
        lh_row[x] = static_cast<std::int16_t>(bot[x]);
        hh_row[x] = static_cast<std::int16_t>(bot[half_w + x]);
      }
    }
    w /= 2;
    h /= 2;
  }
  ll_.coeffs.resize(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    const std::int32_t* src =
        work.data() + static_cast<std::size_t>(y) * width_;
    std::int16_t* dst = ll_.coeffs.data() + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x) dst[x] = static_cast<std::int16_t>(src[x]);
  }
}

const Band& Pyramid::detail(int k, Orientation o) const {
  if (k < 1 || k > levels_) {
    throw std::out_of_range(util::format("detail level {} not in [1,{}]", k,
                                         levels_));
  }
  return details_[k - 1][static_cast<int>(o)];
}

Image Pyramid::reconstruct(int level) const {
  if (level < 0 || level > levels_) {
    throw std::out_of_range(
        util::format("level {} not in [0,{}]", level, levels_));
  }
  int out_w = width_at(level);
  int out_h = height_at(level);
  std::vector<std::int32_t> work(static_cast<std::size_t>(out_w) * out_h);
  std::vector<std::int32_t> scratch(work.size());
  place(ll_, work.data(), out_w, 0, 0);
  for (int k = 1; k <= level; ++k) {
    const Band& lh = detail(k, Orientation::kLH);
    // Lay detail quadrants next to the current LL region in the frame.
    const int half_w = lh.width, half_h = lh.height;
    place(detail(k, Orientation::kHL), work.data(), out_w, half_w, 0);
    place(lh, work.data(), out_w, 0, half_h);
    place(detail(k, Orientation::kHH), work.data(), out_w, half_w, half_h);
    inverse_step(work.data(), out_w, 2 * half_w, 2 * half_h, scratch.data());
  }
  Image img(out_w, out_h);
  for (int y = 0; y < out_h; ++y) {
    const std::int32_t* src =
        work.data() + static_cast<std::size_t>(y) * out_w;
    for (int x = 0; x < out_w; ++x) {
      img.at(x, y) =
          static_cast<std::uint8_t>(std::clamp(src[x], 0, 255));
    }
  }
  return img;
}

}  // namespace avf::wavelet
