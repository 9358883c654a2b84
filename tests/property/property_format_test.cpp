// Cross-format property suite: every seeded graph family must survive the
// EDG2 (packed CSR, mmap'd) and Matrix Market text formats, and the readers
// must agree with each other.
//
// Checked per family:
//   * EDG2 round-trips reproduce the graph bit-identically (CSR layout
//     included — the EDG2 contract is bitwise, not set-level), also when
//     the graph written is itself still borrowing an mmap'd EDG2 file;
//   * the EDG2 mmap reader and its stream fallback agree bitwise, with the
//     mmap side in borrowed storage and the stream side in owned storage;
//   * Matrix Market text round-trips exactly on simple graphs
//     (max_digits10 weights; multigraph families are excluded because the
//     MM reader's KeepMinWeight policy collapses parallel edges by design);
//   * the EDG2 writer is deterministic (byte-identical files across runs
//     and thread counts), so converted datasets are cacheable artifacts;
//   * random single-byte corruption anywhere in an EDG2 file is caught by
//     Deep validation (header flips already by Shallow), never accepted.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/edg2.hpp"
#include "graph/io.hpp"
#include "hetero/thread_pool.hpp"
#include "testing/families.hpp"

namespace eardec::testing {
namespace {

using graph::EdgeId;
using graph::Graph;

constexpr std::uint64_t kSeed = 20260808;
constexpr std::uint32_t kSize = 40;

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_self_loops(), b.num_self_loops());
  EXPECT_EQ(a.has_parallel_edges(), b.has_parallel_edges());
  const auto ao = a.csr_offsets(), bo = b.csr_offsets();
  ASSERT_EQ(ao.size(), bo.size());
  for (std::size_t i = 0; i < ao.size(); ++i) EXPECT_EQ(ao[i], bo[i]);
  const auto aa = a.csr_adjacency(), ba = b.csr_adjacency();
  ASSERT_EQ(aa.size(), ba.size());
  for (std::size_t i = 0; i < aa.size(); ++i) {
    EXPECT_EQ(aa[i].to, ba[i].to);
    EXPECT_EQ(aa[i].edge, ba[i].edge);
    EXPECT_EQ(aa[i].weight, ba[i].weight);
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e), b.endpoints(e));
    EXPECT_EQ(a.weight(e), b.weight(e));
  }
}

class FormatFamilyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  const GraphFamily& fam() const { return families()[GetParam()]; }
};

TEST_P(FormatFamilyTest, Edg2MmapAndStreamAgreeBitwise) {
  const Graph g = fam().make(kSeed, kSize);
  const auto path = std::filesystem::temp_directory_path() /
                    ("eardec_fmt_" + fam().name + ".edg2");
  graph::io::write_edg2_file(path, g);

  const Graph mapped =
      graph::io::read_edg2_file(path, graph::io::Edg2Validate::Deep);
  expect_identical(g, mapped);
  EXPECT_TRUE(mapped.borrowed_storage());

  std::ifstream in(path, std::ios::binary);
  const Graph streamed = graph::io::read_edg2_stream(in);
  expect_identical(mapped, streamed);
  EXPECT_FALSE(streamed.borrowed_storage());
  std::filesystem::remove(path);
}

TEST_P(FormatFamilyTest, Edg2RewriteOfMappedGraphIsExact) {
  // `eardec_cli convert a.edg2 b.edg2` writes a graph that still borrows
  // a's mapping; the new file must hold the identical graph.
  const Graph g = fam().make(kSeed + 1, kSize);
  const auto dir = std::filesystem::temp_directory_path();
  const auto p1 = dir / ("eardec_chain1_" + fam().name + ".edg2");
  const auto p2 = dir / ("eardec_chain2_" + fam().name + ".edg2");
  graph::io::write_edg2_file(p1, g);
  {
    const Graph mapped = graph::io::read_edg2_file(p1);
    EXPECT_TRUE(mapped.borrowed_storage());
    graph::io::write_edg2_file(p2, mapped);
  }
  expect_identical(
      g, graph::io::read_edg2_file(p2, graph::io::Edg2Validate::Deep));
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST_P(FormatFamilyTest, MatrixMarketRoundTripExactOnSimpleGraphs) {
  if (fam().tags.multigraph) {
    GTEST_SKIP() << "MM read collapses parallel edges (KeepMinWeight)";
  }
  if (fam().tags.degenerate_weights) {
    GTEST_SKIP() << "MM read sanitizes zero weights to 1 by design";
  }
  const Graph g = fam().make(kSeed + 2, kSize);
  std::stringstream buf;
  graph::io::write_matrix_market(buf, g);
  const Graph h = graph::io::read_matrix_market(buf);
  // The MM reader may renumber edges (file order), so compare as an edge
  // multiset; weights must still be bitwise equal thanks to max_digits10.
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  std::multiset<std::tuple<graph::VertexId, graph::VertexId, double>> eg, eh;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    eg.emplace(g.endpoints(e).first, g.endpoints(e).second, g.weight(e));
    eh.emplace(h.endpoints(e).first, h.endpoints(e).second, h.weight(e));
  }
  EXPECT_EQ(eg, eh);
}

TEST_P(FormatFamilyTest, Edg2WriterIsDeterministicAcrossThreadCounts) {
  const Graph g = fam().make(kSeed + 3, kSize);
  const auto p1 = std::filesystem::temp_directory_path() /
                  ("eardec_det1_" + fam().name + ".edg2");
  const auto p2 = std::filesystem::temp_directory_path() /
                  ("eardec_det2_" + fam().name + ".edg2");
  hetero::ThreadPool pool(4);
  graph::io::write_edg2_file(p1, g, nullptr);
  graph::io::write_edg2_file(p2, g, &pool);
  EXPECT_EQ(file_bytes(p1), file_bytes(p2));
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST_P(FormatFamilyTest, Edg2CorruptionNeverAcceptedByDeep) {
  const Graph g = fam().make(kSeed + 4, kSize);
  const auto path = std::filesystem::temp_directory_path() /
                    ("eardec_fuzz_" + fam().name + ".edg2");
  graph::io::write_edg2_file(path, g);
  const std::string good = file_bytes(path);
  std::mt19937_64 rng(kSeed ^ GetParam());
  int caught = 0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    std::string data = good;
    if (t % 3 == 0) {
      // Truncate somewhere strictly inside the file.
      data.resize(1 + rng() % (data.size() - 1));
    } else {
      // Single bit flip anywhere: section data is covered by the payload
      // checksum, the header page by its own checksum, and Deep requires
      // the alignment padding to be zero — every byte is accounted for.
      const std::size_t pos = rng() % data.size();
      const auto bit = static_cast<unsigned char>(1u << (rng() % 8));
      data[pos] =
          static_cast<char>(static_cast<unsigned char>(data[pos]) ^ bit);
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.close();
    try {
      (void)graph::io::read_edg2_file(path, graph::io::Edg2Validate::Deep);
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, kTrials) << "some corrupted file was accepted";
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FormatFamilyTest,
    ::testing::Range<std::size_t>(0, families().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      std::string name = families()[param.param].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace eardec::testing
