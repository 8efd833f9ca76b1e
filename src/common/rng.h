/**
 * @file
 * Deterministic pseudo-random generation for synthetic weights and test
 * inputs. Everything in this repository that needs randomness goes through
 * this xoshiro256** implementation so results are reproducible across
 * platforms (std::mt19937 distributions are not portable across stdlibs).
 */

#ifndef NCORE_COMMON_RNG_H
#define NCORE_COMMON_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace ncore {

/** Portable deterministic RNG (xoshiro256** with splitmix64 seeding). */
class Rng
{
  public:
    /** Outputs of the stream one nextGaussian() takes. */
    static constexpr int kGaussianDraws = 12;

    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 to expand the seed into four non-zero words.
        for (auto &word : s) {
            seed += 0x9e3779b97f4a7c15ull;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64 random bits. */
    uint64_t
    next64()
    {
        uint64_t result = rotl(s[1] * 5, 7) * 9;
        uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /**
     * The four state words. With fromState() they let a fill run
     * copies of the stream outside this class (common/gaussian_fill.h
     * runs them in vector lanes) and hand the end state back.
     */
    std::array<uint64_t, 4>
    state() const
    {
        return {s[0], s[1], s[2], s[3]};
    }

    static Rng
    fromState(const std::array<uint64_t, 4> &words)
    {
        Rng r;
        for (std::size_t w = 0; w < 4; ++w)
            r.s[w] = words[w];
        return r;
    }

    /**
     * Advance the stream exactly as `n` calls to next64() would, in
     * O(log n). The state update is linear over GF(2)^256, so n steps
     * are the product of the powers T^(2^k) of its matrix T picked by
     * the set bits of n. The table of powers is built on first use.
     */
    void discard(uint64_t n);

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    nextBelow(uint64_t bound)
    {
        // Modulo bias is irrelevant for our bounds (<< 2^32).
        return next64() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    nextRange(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(
            nextBelow(static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform float in [0, 1). */
    float
    nextFloat()
    {
        return static_cast<float>(next64() >> 40) * 0x1.0p-24f;
    }

    /** Approximately normal(0, 1) via sum of uniforms (Irwin-Hall). */
    float
    nextGaussian()
    {
        float acc = 0.0f;
        for (int i = 0; i < kGaussianDraws; ++i)
            acc += nextFloat();
        return acc - 6.0f;
    }

  private:
    struct JumpTable;
    static const JumpTable &jumpTable();

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
};

} // namespace ncore

#endif // NCORE_COMMON_RNG_H
