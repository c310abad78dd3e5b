#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/generators.h"

namespace ampc::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ampc_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  EdgeList list = GenerateErdosRenyi(50, 120, 3);
  ASSERT_TRUE(WriteEdgeListText(list, Path("g.txt")).ok());
  auto read = ReadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_nodes, 50);
  ASSERT_EQ(read->edges.size(), list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    EXPECT_EQ(read->edges[i], list.edges[i]);
  }
}

TEST_F(IoTest, WeightedTextRoundTrip) {
  WeightedEdgeList list;
  list.num_nodes = 4;
  list.edges = {{0, 1, 2.5, 0}, {2, 3, -1.25, 1}};
  ASSERT_TRUE(WriteWeightedEdgeListText(list, Path("w.txt")).ok());
  auto read = ReadWeightedEdgeListText(Path("w.txt"));
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->edges.size(), 2u);
  EXPECT_EQ(read->edges[0].w, 2.5);
  EXPECT_EQ(read->edges[1].w, -1.25);
  EXPECT_EQ(read->num_nodes, 4);
}

TEST_F(IoTest, BinaryRoundTrip) {
  EdgeList list = GenerateErdosRenyi(1000, 5000, 17);
  ASSERT_TRUE(WriteEdgeListBinary(list, Path("g.bin")).ok());
  auto read = ReadEdgeListBinary(Path("g.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_nodes, list.num_nodes);
  ASSERT_EQ(read->edges.size(), list.edges.size());
  for (size_t i = 0; i < list.edges.size(); ++i) {
    EXPECT_EQ(read->edges[i], list.edges[i]);
  }
}

TEST_F(IoTest, MissingFileIsIoError) {
  auto read = ReadEdgeListText(Path("nope.txt"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, MalformedLineIsInvalidArgument) {
  {
    std::ofstream out(Path("bad.txt"));
    out << "1 2\nthree four\n";
  }
  auto read = ReadEdgeListText(Path("bad.txt"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, NodeCountHeaderOverridesMaxId) {
  {
    std::ofstream out(Path("h.txt"));
    out << "# nodes 10\n0 1\n";
  }
  auto read = ReadEdgeListText(Path("h.txt"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_nodes, 10);
}

TEST_F(IoTest, EdgeBeyondDeclaredNodesRejected) {
  {
    std::ofstream out(Path("over.txt"));
    out << "# nodes 2\n0 5\n";
  }
  auto read = ReadEdgeListText(Path("over.txt"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, CorruptBinaryRejected) {
  {
    std::ofstream out(Path("junk.bin"), std::ios::binary);
    out << "this is not a graph";
  }
  auto read = ReadEdgeListBinary(Path("junk.bin"));
  EXPECT_FALSE(read.ok());
}

// A header claiming 2^40 edges in a 24-byte file must be rejected before
// anything is allocated for them.
TEST_F(IoTest, BinaryEdgeCountBeyondFileSizeRejected) {
  {
    std::ofstream out(Path("huge.bin"), std::ios::binary);
    const uint64_t header[3] = {0x414d504347524148ULL, 4, uint64_t{1} << 40};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  auto read = ReadEdgeListBinary(Path("huge.bin"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryEdgeBeyondNodeCountRejected) {
  EdgeList list;
  list.num_nodes = 3;
  list.edges = {{0, 1}, {1, 3}};
  ASSERT_TRUE(WriteEdgeListBinary(list, Path("over.bin")).ok());
  auto read = ReadEdgeListBinary(Path("over.bin"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

// 4294967295 is kInvalidNode, the first id a NodeId cannot hold; it used
// to be narrowed silently and, with no `# nodes` line, to set num_nodes
// to about 4.3G.
TEST_F(IoTest, TextIdBeyondNodeIdRangeRejected) {
  for (const char* line : {"0 4294967295\n", "4294967296 1\n",
                           "# nodes 5\n1 4294967299\n"}) {
    {
      std::ofstream out(Path("wide.txt"));
      out << line;
    }
    auto read = ReadEdgeListText(Path("wide.txt"));
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument) << line;
  }
  {
    std::ofstream out(Path("wide_w.txt"));
    out << "0 4294967295 1.5\n";
  }
  auto read = ReadWeightedEdgeListText(Path("wide_w.txt"));
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, TextIdAtTopOfNodeIdRangeAccepted) {
  {
    std::ofstream out(Path("top.txt"));
    out << "0 4294967294\n";
  }
  auto read = ReadEdgeListText(Path("top.txt"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_nodes, int64_t{4294967295});
  EXPECT_EQ(read->edges[0].v, NodeId{4294967294});
}

TEST_F(IoTest, DeclaredNodeCountBeyondNodeIdRangeRejected) {
  {
    std::ofstream out(Path("count.txt"));
    out << "# nodes 4294967296\n0 1\n";
  }
  EXPECT_EQ(ReadEdgeListText(Path("count.txt")).status().code(),
            StatusCode::kInvalidArgument);
  {
    std::ofstream out(Path("count_w.txt"));
    out << "# nodes 4294967296\n0 1 2.0\n";
  }
  EXPECT_EQ(ReadWeightedEdgeListText(Path("count_w.txt")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryNodeCountBeyondNodeIdRangeRejected) {
  {
    std::ofstream out(Path("count.bin"), std::ios::binary);
    const uint64_t header[3] = {0x414d504347524148ULL, uint64_t{1} << 32, 1};
    const Edge edge{0, 1};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write(reinterpret_cast<const char*>(&edge), sizeof(edge));
  }
  auto read = ReadEdgeListBinary(Path("count.bin"));
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, CommentsAndBlankLinesIgnored) {
  {
    std::ofstream out(Path("c.txt"));
    out << "# a comment\n\n0 1\n# another\n1 2\n";
  }
  auto read = ReadEdgeListText(Path("c.txt"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->edges.size(), 2u);
}

}  // namespace
}  // namespace ampc::graph
