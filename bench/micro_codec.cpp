// Micro-benchmarks: real codec throughput and ratio on representative
// wavelet payloads (google-benchmark).
#include <benchmark/benchmark.h>

#define AVF_BENCH_HAS_GBENCH
#include "bench/common.hpp"
#include "codec/bwt.hpp"
#include "codec/codec.hpp"
#include "viz/world.hpp"
#include "wavelet/progressive.hpp"

namespace {

using namespace avf;

const codec::Bytes& payload() {
  static const codec::Bytes data = [] {
    const wavelet::Image& img = viz::cached_image(512, 99);
    wavelet::Pyramid pyr(img, 4);
    wavelet::ProgressiveEncoder enc(pyr, 16);
    return enc.encode_region({256, 256, 512}, 4);
  }();
  return data;
}

void BM_Compress(benchmark::State& state) {
  const codec::Codec& c =
      codec::codec_for(static_cast<codec::CodecId>(state.range(0)));
  std::size_t out_size = 0;
  for (auto _ : state) {
    codec::Bytes compressed = c.compress(payload());
    out_size = compressed.size();
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          payload().size());
  state.counters["ratio"] =
      static_cast<double>(out_size) / static_cast<double>(payload().size());
}
BENCHMARK(BM_Compress)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_Decompress(benchmark::State& state) {
  const codec::Codec& c =
      codec::codec_for(static_cast<codec::CodecId>(state.range(0)));
  codec::Bytes compressed = c.compress(payload());
  for (auto _ : state) {
    codec::Bytes out = c.decompress(compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          payload().size());
}
BENCHMARK(BM_Decompress)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// The BWT's dominant kernel on its own: the suffix array of one 64 KiB
/// block, the codec's default block size.
void BM_SuffixArray(benchmark::State& state) {
  constexpr std::size_t kBlock = 64 * 1024;
  codec::BytesView block = codec::BytesView(payload()).first(kBlock);
  for (auto _ : state) {
    std::vector<std::uint32_t> sa = codec::bwtdetail::suffix_array(block);
    benchmark::DoNotOptimize(sa);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_SuffixArray)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return avf::bench::run_benchmarks_with_json(argc, argv, "micro_codec");
}
