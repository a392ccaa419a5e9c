// Micro-benchmarks: real codec throughput and ratio on representative
// wavelet payloads (google-benchmark).
#include <benchmark/benchmark.h>

#define AVF_BENCH_HAS_GBENCH
#include "bench/common.hpp"
#include "codec/bwt.hpp"
#include "codec/codec.hpp"
#include "wavelet/image.hpp"
#include "wavelet/progressive.hpp"

namespace {

using namespace avf;

const codec::Bytes& payload() {
  static const codec::Bytes data = [] {
    wavelet::Pyramid pyr(wavelet::Image::synthetic(512, 512, 99), 4);
    wavelet::ProgressiveEncoder enc(pyr, 16);
    return enc.encode_region({256, 256, 512}, 4);
  }();
  return data;
}

void BM_Compress(benchmark::State& state) {
  const codec::Codec& c =
      codec::codec_for(static_cast<codec::CodecId>(state.range(0)));
  // Built here, not on the first timed iteration.
  const codec::Bytes& input = payload();
  std::size_t out_size = 0;
  for (auto _ : state) {
    codec::Bytes compressed = c.compress(input);
    out_size = compressed.size();
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          input.size());
  state.counters["ratio"] =
      static_cast<double>(out_size) / static_cast<double>(input.size());
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

/// One stage of the BWT pipeline on the first 64 KiB block, fed the
/// previous stage's output: 0 suffix array and transform (bwt_forward),
/// 1 move-to-front, 2 zero-run coding, 3 Huffman.
void BM_BwtStage(benchmark::State& state) {
  using namespace codec::bwtdetail;
  constexpr std::size_t kBlock = 64 * 1024;
  codec::BytesView block = codec::BytesView(payload()).first(kBlock);
  std::uint32_t primary = 0;
  const codec::Bytes transformed = bwt_forward(block, primary);
  const codec::Bytes mtf = mtf_encode(transformed);
  const std::vector<std::uint16_t> symbols = rle0_encode(mtf);
  std::vector<std::uint8_t> lengths;
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0:
        benchmark::DoNotOptimize(bwt_forward(block, primary));
        break;
      case 1:
        benchmark::DoNotOptimize(mtf_encode(transformed));
        break;
      case 2:
        benchmark::DoNotOptimize(rle0_encode(mtf));
        break;
      default:
        benchmark::DoNotOptimize(
            huffman_encode_sym(symbols, kRle0Alphabet, lengths));
        break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_BwtStage)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return avf::bench::run_benchmarks_with_json(argc, argv, "micro_codec");
}
