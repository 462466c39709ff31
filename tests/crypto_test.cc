#include <gtest/gtest.h>

#include <string>

#include "common/serde.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace qanaat {
namespace {

// ---------------------------------------------------------------- SHA-256
// Known-answer tests from FIPS 180-4 / NIST examples.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string m(1000000, 'a');
  EXPECT_EQ(Sha256::Hash(m).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789";
  Sha256 h;
  // Feed in awkward chunk sizes spanning the 64-byte block boundary.
  for (size_t i = 0; i < data.size();) {
    size_t chunk = (i % 7) + 1;
    chunk = std::min(chunk, data.size() - i);
    h.Update(data.data() + i, chunk);
    i += chunk;
  }
  EXPECT_EQ(h.Finalize().ToHex(), Sha256::Hash(data).ToHex());
}

TEST(Sha256Test, ExactBlockBoundaries) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string m(len, 'x');
    Sha256 h;
    h.Update(m);
    // Must equal one-shot (pads internally consistent at boundary sizes).
    EXPECT_EQ(h.Finalize(), Sha256::Hash(m)) << "len=" << len;
  }
}

TEST(Sha256Test, DigestPrefixAndOrdering) {
  auto a = Sha256::Hash("a");
  auto b = Sha256::Hash("b");
  EXPECT_NE(a, b);
  EXPECT_NE(a.Prefix64(), b.Prefix64());
  EXPECT_TRUE(a < b || b < a);
}

TEST(Sha256Test, ResetAfterFinalize) {
  Sha256 h;
  h.Update("abc");
  h.Finalize();
  h.Update("abc");
  EXPECT_EQ(h.Finalize().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ------------------------------------------------------------- signatures

TEST(SignerTest, SignVerifyRoundTrip) {
  KeyStore ks(123);
  auto d = Sha256::Hash("message");
  Signature sig = ks.Sign(7, d);
  EXPECT_EQ(sig.signer, 7u);
  EXPECT_TRUE(ks.Verify(sig, d));
}

TEST(SignerTest, WrongDigestRejected) {
  KeyStore ks(123);
  Signature sig = ks.Sign(7, Sha256::Hash("message"));
  EXPECT_FALSE(ks.Verify(sig, Sha256::Hash("other")));
}

TEST(SignerTest, WrongSignerRejected) {
  KeyStore ks(123);
  auto d = Sha256::Hash("message");
  Signature sig = ks.Sign(7, d);
  sig.signer = 8;  // claim someone else signed it
  EXPECT_FALSE(ks.Verify(sig, d));
}

TEST(SignerTest, DifferentKeyStoresIncompatible) {
  KeyStore ks1(1), ks2(2);
  auto d = Sha256::Hash("m");
  EXPECT_FALSE(ks2.Verify(ks1.Sign(3, d), d));
}

TEST(SignerTest, ForgeNeverVerifies) {
  KeyStore ks(55);
  auto d = Sha256::Hash("m");
  EXPECT_FALSE(ks.Verify(ks.Forge(3), d));
}

TEST(SignerTest, ShareAndSignDomainsSeparated) {
  KeyStore ks(9);
  auto d = Sha256::Hash("m");
  Signature share = ks.SignShare(4, d);
  EXPECT_TRUE(ks.VerifyShare(share, d));
  // A threshold share is not a plain signature and vice versa.
  EXPECT_FALSE(ks.Verify(share, d));
  EXPECT_FALSE(ks.VerifyShare(ks.Sign(4, d), d));
}

TEST(SignerTest, SerializationRoundTrip) {
  KeyStore ks(77);
  auto d = Sha256::Hash("x");
  Signature sig = ks.Sign(12, d);
  Encoder enc;
  Encode(sig, &enc);
  Decoder dec(enc.buffer());
  Signature out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_EQ(out, sig);
  EXPECT_TRUE(ks.Verify(out, d));
}

// --------------------------------------------------------- ThresholdCert

TEST(ThresholdCertTest, ValidWithQuorum) {
  KeyStore ks(5);
  auto d = Sha256::Hash("block");
  ThresholdCert cert;
  for (NodeId i = 0; i < 3; ++i) cert.shares.push_back(ks.SignShare(i, d));
  EXPECT_TRUE(cert.Valid(ks, d, 3));
  EXPECT_FALSE(cert.Valid(ks, d, 4));
}

TEST(ThresholdCertTest, DuplicateSignersDontCount) {
  KeyStore ks(5);
  auto d = Sha256::Hash("block");
  ThresholdCert cert;
  cert.shares.push_back(ks.SignShare(1, d));
  cert.shares.push_back(ks.SignShare(1, d));
  cert.shares.push_back(ks.SignShare(2, d));
  EXPECT_FALSE(cert.Valid(ks, d, 3));
}

TEST(ThresholdCertTest, OneBadShareInvalidates) {
  KeyStore ks(5);
  auto d = Sha256::Hash("block");
  ThresholdCert cert;
  cert.shares.push_back(ks.SignShare(1, d));
  cert.shares.push_back(ks.SignShare(2, d));
  cert.shares.push_back(ks.Forge(3));
  EXPECT_FALSE(cert.Valid(ks, d, 2));
}

TEST(ThresholdCertTest, SerializationRoundTrip) {
  KeyStore ks(5);
  auto d = Sha256::Hash("block");
  ThresholdCert cert;
  for (NodeId i = 0; i < 4; ++i) cert.shares.push_back(ks.SignShare(i, d));
  Encoder enc;
  Encode(cert, &enc);
  Decoder dec(enc.buffer());
  ThresholdCert out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_TRUE(out.Valid(ks, d, 4));
}

// ----------------------------------------------------------------- Merkle

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  auto leaf = Sha256::Hash("tx0");
  EXPECT_EQ(MerkleTree::RootOf({leaf}), leaf);
}

TEST(MerkleTest, EmptyTreeDefined) {
  EXPECT_EQ(MerkleTree::RootOf({}), Sha256::Hash("", 0));
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  std::vector<Sha256Digest> leaves;
  for (int i = 0; i < 8; ++i)
    leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
  auto root = MerkleTree::RootOf(leaves);
  for (int i = 0; i < 8; ++i) {
    auto mutated = leaves;
    mutated[i] = Sha256::Hash("mut" + std::to_string(i));
    EXPECT_NE(MerkleTree::RootOf(mutated), root);
  }
}

TEST(MerkleTest, OrderMatters) {
  auto a = Sha256::Hash("a");
  auto b = Sha256::Hash("b");
  EXPECT_NE(MerkleTree::RootOf({a, b}), MerkleTree::RootOf({b, a}));
}

}  // namespace
}  // namespace qanaat
