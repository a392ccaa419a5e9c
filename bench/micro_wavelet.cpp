// Micro-benchmarks: synthetic image generation, wavelet pyramid
// construction, the whole image ingest, reconstruction, and progressive
// tile encoding and decoding (full, partial-level, and into a reused
// decoder; each a receive plus assemble()), and the receive alone.
#include <benchmark/benchmark.h>

#include <memory>

#define AVF_BENCH_HAS_GBENCH
#include "bench/common.hpp"
#include "wavelet/haar.hpp"
#include "wavelet/image.hpp"
#include "wavelet/progressive.hpp"

namespace {

using namespace avf;

// Every iteration synthesizes the image.  Real time: the rows are built on
// a pool.
void BM_ImageSynthetic(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    wavelet::Image img = wavelet::Image::synthetic(size, size, 7);
    benchmark::DoNotOptimize(img.pixels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_ImageSynthetic)->Arg(256)->Arg(1024)->UseRealTime();

void BM_PyramidDecompose(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  const wavelet::Image img = wavelet::Image::synthetic(size, size, 7);
  for (auto _ : state) {
    wavelet::Pyramid pyr(img, 4);
    benchmark::DoNotOptimize(pyr.ll().coeffs.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_PyramidDecompose)->Arg(256)->Arg(1024);

// The ingest a world pays once per catalog image before any session runs:
// synthesize, decompose into 4 levels and take the content hash, fresh
// every iteration.  Real time: the rows are synthesized on a pool.
void BM_ImageIngest(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    wavelet::Pyramid pyr(wavelet::Image::synthetic(size, size, 7), 4);
    util::Hash128 h = wavelet::pyramid_content_hash(pyr);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_ImageIngest)->Arg(1024)->UseRealTime();

void BM_PyramidReconstruct(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  wavelet::Pyramid pyr(wavelet::Image::synthetic(size, size, 7), 4);
  for (auto _ : state) {
    wavelet::Image img = pyr.reconstruct(4);
    benchmark::DoNotOptimize(img.pixels().data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_PyramidReconstruct)->Arg(256)->Arg(1024);

void BM_ProgressiveEncode(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  wavelet::Pyramid pyr(wavelet::Image::synthetic(size, size, 7), 4);
  for (auto _ : state) {
    wavelet::ProgressiveEncoder enc(pyr, 16);
    wavelet::Bytes out =
        enc.encode_region({size / 2, size / 2, size}, 4);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ProgressiveEncode)->Arg(256)->Arg(1024);

// The payloads a client receives: one shared Blob, as the server's store
// hands it over.
std::shared_ptr<const util::Blob> region_payload(const wavelet::Pyramid& pyr,
                                                 int size, int level) {
  wavelet::ProgressiveEncoder enc(pyr, 16);
  return std::make_shared<const util::Blob>(
      enc.encode_region({size / 2, size / 2, size}, level));
}

// A full decode: index the payload, then assemble the pyramid from it.
void BM_ProgressiveDecode(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  wavelet::Pyramid pyr(wavelet::Image::synthetic(size, size, 7), 4);
  auto payload = region_payload(pyr, size, 4);
  for (auto _ : state) {
    wavelet::ProgressiveDecoder dec(size, size, 4, 16);
    auto result = dec.apply(payload);
    wavelet::Pyramid got = dec.assemble();
    benchmark::DoNotOptimize(result.coefficients);
    benchmark::DoNotOptimize(got.ll().coeffs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProgressiveDecode)->Arg(256)->Arg(1024);

// The receive alone, which is all a client does per reply: validate every
// tile header and index the payload in place.
void BM_ProgressiveApply(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  wavelet::Pyramid pyr(wavelet::Image::synthetic(size, size, 7), 4);
  auto payload = region_payload(pyr, size, 4);
  wavelet::ProgressiveDecoder dec(size, size, 4, 16);
  for (auto _ : state) {
    dec.reset();
    auto result = dec.apply(payload);
    benchmark::DoNotOptimize(result.coefficients);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProgressiveApply)->Arg(256)->Arg(1024);

// The common client case: a region that stops below the top level.  Only
// the bands up to level 2 of the 4-level 1024² pyramid are assembled.
void BM_ProgressiveDecodePartial(benchmark::State& state) {
  wavelet::Pyramid pyr(wavelet::Image::synthetic(1024, 1024, 7), 4);
  auto payload = region_payload(pyr, 1024, 2);
  for (auto _ : state) {
    wavelet::ProgressiveDecoder dec(1024, 1024, 4, 16);
    auto result = dec.apply(payload);
    wavelet::Pyramid got = dec.assemble();
    benchmark::DoNotOptimize(result.coefficients);
    benchmark::DoNotOptimize(got.ll().coeffs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProgressiveDecodePartial);

// One decoder per client: reset() between images keeps the index.
void BM_ProgressiveDecodeReused(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  wavelet::Pyramid pyr(wavelet::Image::synthetic(size, size, 7), 4);
  auto payload = region_payload(pyr, size, 4);
  wavelet::ProgressiveDecoder dec(size, size, 4, 16);
  for (auto _ : state) {
    dec.reset();
    auto result = dec.apply(payload);
    wavelet::Pyramid got = dec.assemble();
    benchmark::DoNotOptimize(result.coefficients);
    benchmark::DoNotOptimize(got.ll().coeffs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProgressiveDecodeReused)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return avf::bench::run_benchmarks_with_json(argc, argv, "micro_wavelet");
}
