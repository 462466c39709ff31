#ifndef QANAAT_CRYPTO_SHA256_H_
#define QANAAT_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace qanaat {

/// 32-byte SHA-256 digest. Used as the collision-resistant hash D(.) of the
/// paper (§3.1) for message digests, block hashes and Merkle roots.
struct Sha256Digest {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Sha256Digest& o) const { return bytes == o.bytes; }
  bool operator!=(const Sha256Digest& o) const { return bytes != o.bytes; }
  bool operator<(const Sha256Digest& o) const { return bytes < o.bytes; }

  /// First 8 bytes as integer — convenient map key / short id.
  uint64_t Prefix64() const {
    uint64_t v;
    std::memcpy(&v, bytes.data(), 8);
    return v;
  }

  /// Lowercase hex string.
  std::string ToHex() const;

  /// Wire layout (common/serde.h): the 32 raw bytes.
  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.bytes);
  }
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const std::string& s) { Update(s.data(), s.size()); }
  void Update(const std::vector<uint8_t>& v) { Update(v.data(), v.size()); }
  Sha256Digest Finalize();

  /// One-shot convenience.
  static Sha256Digest Hash(const void* data, size_t len);
  /// Single raw compression of exactly one 64-byte block from the IV
  /// (Davies–Meyer style, no length padding). Half the cost of Hash()
  /// for 64-byte inputs; used by the Merkle tree to combine two child
  /// digests, where the input length is fixed so padding adds nothing.
  static Sha256Digest CompressBlock(const uint8_t block[64]);
  static Sha256Digest Hash(const std::string& s) {
    return Hash(s.data(), s.size());
  }
  static Sha256Digest Hash(const std::vector<uint8_t>& v) {
    return Hash(v.data(), v.size());
  }

 private:
  void ProcessBlock(const uint8_t block[64]);

  uint32_t h_[8];
  uint64_t total_len_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace qanaat

#endif  // QANAAT_CRYPTO_SHA256_H_
