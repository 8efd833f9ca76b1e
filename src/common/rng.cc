#include "rng.h"

#include <algorithm>
#include <bit>
#include <memory>

namespace ncore {

/**
 * T^(2^k) for k = 0..63, where T is one xoshiro256 state update. Each
 * 256x256 GF(2) matrix is stored as its columns: pow[k][j] is the image
 * of the state with only bit j set (bit j%64 of word j/64).
 */
struct Rng::JumpTable
{
    uint64_t pow[64][256][4];
};

namespace {

/** v <- M v over GF(2), M given by its columns. */
void
applyMatrix(const uint64_t (&cols)[256][4], uint64_t (&v)[4])
{
    uint64_t r[4] = {};
    for (int w = 0; w < 4; ++w) {
        for (uint64_t bits = v[w]; bits; bits &= bits - 1) {
            const uint64_t *c = cols[w * 64 + std::countr_zero(bits)];
            r[0] ^= c[0];
            r[1] ^= c[1];
            r[2] ^= c[2];
            r[3] ^= c[3];
        }
    }
    for (int w = 0; w < 4; ++w)
        v[w] = r[w];
}

} // namespace

const Rng::JumpTable &
Rng::jumpTable()
{
    static const std::unique_ptr<JumpTable> table = [] {
        auto t = std::make_unique<JumpTable>();
        for (int j = 0; j < 256; ++j) {
            Rng unit;
            for (int w = 0; w < 4; ++w)
                unit.s[w] = w == j / 64 ? uint64_t(1) << (j % 64) : 0;
            unit.next64();
            std::copy_n(unit.s, 4, t->pow[0][j]);
        }
        // T^(2^k) is T^(2^(k-1)) squared: its column j is T^(2^(k-1))
        // applied to column j of T^(2^(k-1)).
        for (int k = 1; k < 64; ++k) {
            for (int j = 0; j < 256; ++j) {
                std::copy_n(t->pow[k - 1][j], 4, t->pow[k][j]);
                applyMatrix(t->pow[k - 1], t->pow[k][j]);
            }
        }
        return t;
    }();
    return *table;
}

void
Rng::discard(uint64_t n)
{
    if (n == 0)
        return;
    const JumpTable &t = jumpTable();
    for (int k = 0; n; ++k, n >>= 1)
        if (n & 1)
            applyMatrix(t.pow[k], s);
}

} // namespace ncore
