// Golden hashes of seeded fuzz frames.
//
// Encodes the first 1000 random_msg() frames of the default fuzz seed in PER
// and in FLAT and compares each frame's FNV-1a 64 with the corpus file (one
// `<format>/<nnnn> <hash>` line per frame): a codec change that moves any
// byte of any of the 2000 frames fails. `--write` regenerates the file, for
// a deliberate wire-format change only.
//
//   fuzz_golden <corpus-file> [--write]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "e2ap/codec.hpp"
#include "fuzz_common.hpp"

namespace {

constexpr std::size_t kFrames = 1000;

std::uint64_t fnv1a64(flexric::BytesView b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::string> frame_lines() {
  using namespace flexric;
  std::vector<std::string> out;
  for (WireFormat f : {WireFormat::per, WireFormat::flat}) {
    const e2ap::Codec& codec = e2ap::codec_for(f);
    Rng rng(fuzz::DriverConfig{}.seed);
    for (std::size_t i = 0; i < kFrames; ++i) {
      auto wire = codec.encode(fuzz::random_msg(rng));
      if (!wire) fuzz::fail("encode of a valid IR message failed", i);
      char line[64];
      std::snprintf(line, sizeof line, "%s/%04zu %016llx",
                    f == WireFormat::per ? "per" : "flat", i,
                    static_cast<unsigned long long>(fnv1a64(*wire)));
      out.emplace_back(line);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || (argc == 3 && std::strcmp(argv[2], "--write") != 0) ||
      argc > 3) {
    std::fprintf(stderr, "usage: %s <corpus-file> [--write]\n", argv[0]);
    return 2;
  }
  auto lines = frame_lines();
  if (argc == 3) {
    std::ofstream out(argv[1]);
    out << "# FNV-1a 64 of seeded fuzz::random_msg frames "
           "(fuzz/fuzz_golden.cpp).\n";
    for (const auto& l : lines) out << l << '\n';
    return out.good() ? 0 : 1;
  }
  std::ifstream in(argv[1]);
  std::vector<std::string> golden;
  for (std::string l; std::getline(in, l);)
    if (!l.empty() && l[0] != '#') golden.push_back(l);
  if (golden.size() != lines.size()) {
    std::fprintf(stderr, "fuzz_golden: %zu frames in %s, %zu expected\n",
                 golden.size(), argv[1], lines.size());
    return 1;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (golden[i] == lines[i]) continue;
    if (++bad <= 10)
      std::fprintf(stderr, "fuzz_golden: expected '%s', got '%s'\n",
                   golden[i].c_str(), lines[i].c_str());
  }
  std::printf("fuzz_golden: %zu frames, %zu differ\n", lines.size(), bad);
  return bad == 0 ? 0 : 1;
}
