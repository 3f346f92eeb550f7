#include "overlay/encoding.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/sim_signer.hpp"
#include "net/topology.hpp"
#include "overlay/builder.hpp"
#include "overlay/robust_tree.hpp"

namespace hermes::overlay {
namespace {

Overlay test_overlay(std::size_t n = 40, std::size_t f = 1) {
  net::TopologyParams params;
  params.node_count = n;
  params.min_degree = 4;
  Rng trng(55);
  const net::Topology topo = net::make_topology(params, trng);
  RobustTreeParams tree_params;
  tree_params.f = f;
  RankTable ranks(n, 0.0);
  return build_robust_tree(topo.graph, tree_params, ranks);
}

TEST(Encoding, RoundTripPreservesStructure) {
  const Overlay o = test_overlay();
  const auto decoded = decode_overlay(encode_overlay(o));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node_count(), o.node_count());
  EXPECT_EQ(decoded->f(), o.f());
  EXPECT_EQ(decoded->entry_points(), o.entry_points());
  EXPECT_EQ(decoded->edge_count(), o.edge_count());
  for (net::NodeId v = 0; v < o.node_count(); ++v) {
    ASSERT_EQ(decoded->depth(v), o.depth(v));
    auto a = o.successors(v);
    auto b = decoded->successors(v);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
  EXPECT_TRUE(decoded->is_valid());
}

TEST(Encoding, LatenciesSurviveQuantized) {
  const Overlay o = test_overlay();
  const auto decoded = decode_overlay(encode_overlay(o));
  ASSERT_TRUE(decoded.has_value());
  for (net::NodeId v = 0; v < o.node_count(); ++v) {
    for (net::NodeId c : o.successors(v)) {
      EXPECT_NEAR(decoded->link_latency(v, c), o.link_latency(v, c), 0.01);
    }
  }
}

TEST(Encoding, CompactSize) {
  const Overlay o = test_overlay(100);
  const auto encoded = encode_overlay(o);
  // A few bytes per edge plus per-node overhead; far below a naive
  // adjacency matrix (100x100).
  EXPECT_LT(encoded.size(), o.edge_count() * 8 + o.node_count() * 4 + 64);
}

TEST(Encoding, RejectsBadMagic) {
  auto enc = encode_overlay(test_overlay());
  enc[0] ^= 0xff;
  EXPECT_FALSE(decode_overlay(enc).has_value());
}

TEST(Encoding, RejectsTruncation) {
  const auto enc = encode_overlay(test_overlay());
  for (std::size_t cut : {enc.size() - 1, enc.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(
        decode_overlay(hermes::BytesView(enc.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(Encoding, RejectsTrailingGarbage) {
  auto enc = encode_overlay(test_overlay());
  enc.push_back(0);
  EXPECT_FALSE(decode_overlay(enc).has_value());
}

TEST(Encoding, CertifyAndVerify) {
  const Overlay o = test_overlay();
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  const auto cert = certify_overlay(o, scheme);
  ASSERT_TRUE(cert.has_value());
  Overlay decoded;
  EXPECT_TRUE(verify_certified_overlay(*cert, scheme, &decoded));
  EXPECT_EQ(decoded.node_count(), o.node_count());
}

TEST(Encoding, VerifyRejectsTamperedEncoding) {
  const Overlay o = test_overlay();
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  auto cert = certify_overlay(o, scheme);
  ASSERT_TRUE(cert.has_value());
  cert->encoded[10] ^= 1;
  EXPECT_FALSE(verify_certified_overlay(*cert, scheme));
}

TEST(Encoding, VerifyRejectsWrongCommittee) {
  const Overlay o = test_overlay();
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  const crypto::SimThresholdScheme other(hermes::to_bytes("imposter"), 4, 3);
  const auto cert = certify_overlay(o, scheme);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(verify_certified_overlay(*cert, other));
}

TEST(Encoding, VerifyRejectsStructurallyInvalidButSignedOverlay) {
  // A committee bug (or collusion) signing a malformed overlay must still
  // be caught by the structural validation on install.
  Overlay broken(5, 1);
  broken.add_entry_point(0);
  broken.add_entry_point(1);
  broken.set_depth(2, 2);
  broken.set_depth(3, 2);
  broken.set_depth(4, 3);
  broken.add_link(0, 2, 1.0);  // node 2 has only one predecessor
  broken.add_link(0, 3, 1.0);
  broken.add_link(1, 3, 1.0);
  broken.add_link(2, 4, 1.0);
  broken.add_link(3, 4, 1.0);
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  const auto cert = certify_overlay(broken, scheme);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(verify_certified_overlay(*cert, scheme));
}

// Pinned overlay encodings: SHA-256 over the concatenated encode_overlay of
// every tree build_overlay_set returns, with the default annealing
// schedule. Any change to tree construction, annealing moves, acceptance or
// the wire format shows up here as a digest change. The digests are a
// regression baseline, so a deliberate behaviour change must re-pin them.
std::string set_digest(const OverlaySet& set) {
  crypto::Sha256 h;
  for (const Overlay& o : set.overlays) h.update(encode_overlay(o));
  return hex_encode(crypto::digest_to_bytes(h.finish()));
}

net::Topology pinned_topology(std::size_t n, std::uint64_t seed) {
  net::TopologyParams tp;
  tp.node_count = n;
  Rng trng(seed);
  return net::make_topology(tp, trng);
}

BuilderParams pinned_builder() {
  BuilderParams p;
  p.f = 1;
  p.k = 3;
  return p;
}

struct PinnedBuild {
  std::size_t nodes;
  std::uint64_t seed;
  const char* digest;
};

void PrintTo(const PinnedBuild& c, std::ostream* os) {
  *os << "n=" << c.nodes << " seed=" << c.seed;
}

class PinnedOverlayEncoding : public ::testing::TestWithParam<PinnedBuild> {};

TEST_P(PinnedOverlayEncoding, BuildOverlaySetDigestIsUnchanged) {
  const PinnedBuild& c = GetParam();
  const net::Topology topo = pinned_topology(c.nodes, c.seed);
  Rng rng(c.seed + 1);
  const OverlaySet set = build_overlay_set(topo.graph, pinned_builder(), rng);
  EXPECT_EQ(set_digest(set), c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Builds, PinnedOverlayEncoding,
    ::testing::Values(
        PinnedBuild{100, 1,
                    "e503a68a8a71c89013bd13732c11b9482a8eb7c1662beecafccbd48ebcdc17f6"},
        PinnedBuild{100, 2,
                    "539d816bf7bbdcade58211dfcdd43f9fc1d12054a096c5339413897f52bdd7a5"},
        PinnedBuild{100, 3,
                    "a47212eb02dc7edef28f9da8d84f3a815ecdc0b82b7d1db59bcfff2f5c46474f"},
        PinnedBuild{200, 1,
                    "8644b04e815f5514c62b15b7a329bd74588623928832e596b79a8b749b6038c2"},
        PinnedBuild{200, 2,
                    "6da3c1dc8ff29dac8f79d38b98864320a5aec00f1b8149e69fef3c3907624661"},
        PinnedBuild{200, 3,
                    "fce960ce2f1b48c0c170409000e1673f1ad4498f3abff77b73d348b10d539a4c"},
        PinnedBuild{2000, 1,
                    "6694f31b79ec22ca5e3556630160905502746d78490e389b15d7e5aac6d5ceef"},
        PinnedBuild{2000, 2,
                    "d8dd27a4df529b7251322eedcbdcc17b940ba3c61d8e6cdd31fe3314c77693f6"}),
    [](const ::testing::TestParamInfo<PinnedBuild>& info) {
      return "n" + std::to_string(info.param.nodes) + "_seed" +
             std::to_string(info.param.seed);
    });

// The warm-started rebuild of the epoch pipeline: `churn` nodes churn out
// of the first generation and the next one is re-annealed from it. The
// re-attachments price logical links through join placement.
std::string warm_rebuild_digest(std::size_t nodes, std::size_t churn) {
  const net::Topology topo = pinned_topology(nodes, 1);
  const BuilderParams params = pinned_builder();
  Rng r0(2);
  const OverlaySet previous = build_overlay_set(topo.graph, params, r0);
  std::vector<NodeId> churned;
  for (NodeId v = 0; v < topo.graph.node_count() && churned.size() < churn;
       ++v) {
    if (!previous.overlays.front().is_entry(v) &&
        previous.overlays.front().depth(v) >= 2) {
      churned.push_back(v);
    }
  }
  EXPECT_EQ(churned.size(), churn);
  Rng r1(3);
  return set_digest(
      build_overlay_set_warm(topo.graph, params, previous, churned, r1));
}

TEST(PinnedOverlayEncodingWarm, BuildOverlaySetWarmDigestIsUnchanged) {
  EXPECT_EQ(warm_rebuild_digest(100, 3),
            "f8bb1a58d9ed145234a87fc34c6514a8a21bd1b5d63c734c476d3c56fcd4c172");
}

TEST(PinnedOverlayEncodingWarm, BuildOverlaySetWarmDigestIsUnchangedAtN2000) {
  EXPECT_EQ(warm_rebuild_digest(2000, 8),
            "a670591d50d1d3fe7236eb048c70c5f54ba2f1684ef8e651187cf5afa261fdf3");
}

}  // namespace
}  // namespace hermes::overlay
