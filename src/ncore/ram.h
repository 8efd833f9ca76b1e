/**
 * @file
 * Ncore's internal SRAM banks. Each of the data and weight RAMs is
 * logically rows x rowBytes (2048 x 4096 B in CHA = 8 MB each); a whole
 * row is read or written per clock (paper IV-C2). The banks carry 64-bit
 * granule SECDED ECC; check-bit maintenance can be disabled for speed in
 * performance runs and enabled for fault-injection tests.
 */

#ifndef NCORE_NCORE_RAM_H
#define NCORE_NCORE_RAM_H

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/ecc.h"
#include "common/logging.h"

namespace ncore {

/** ECC event counters for one bank. */
struct EccStats
{
    uint64_t corrected = 0;
    uint64_t uncorrectable = 0;
};

/** One SRAM bank of full-row-access memory with optional ECC modeling. */
class SramBank
{
  public:
    SramBank(const char *name, int rows, int row_bytes, bool model_ecc)
        : name_(name), rows_(rows), rowBytes_(row_bytes),
          modelEcc_(model_ecc),
          storage_(static_cast<size_t>(rows) * row_bytes, 0),
          checks_(model_ecc
                      ? static_cast<size_t>(rows) * (row_bytes / 8)
                      : 0,
                  0)
    {
        panic_if(row_bytes % 8 != 0, "row size must be 8-byte aligned");
        if (model_ecc)
            rewriteAllChecks();
    }

    int rows() const { return rows_; }
    int rowBytes() const { return rowBytes_; }
    /** Every readRow scrubs and counts ECC events. */
    bool eccModeled() const { return modelEcc_; }

    /** Direct pointer to a row (hot path; caller honors row semantics). */
    uint8_t *
    rowPtr(int row)
    {
        panic_if(row < 0 || row >= rows_, "%s row %d out of range",
                 name_, row);
        return storage_.data() + static_cast<size_t>(row) * rowBytes_;
    }

    const uint8_t *
    rowPtr(int row) const
    {
        panic_if(row < 0 || row >= rows_, "%s row %d out of range",
                 name_, row);
        return storage_.data() + static_cast<size_t>(row) * rowBytes_;
    }

    /** Full-row write, updating ECC check bits when modeled. */
    void
    writeRow(int row, const uint8_t *bytes)
    {
        std::memcpy(rowPtr(row), bytes, static_cast<size_t>(rowBytes_));
        if (modelEcc_)
            rewriteRowChecks(row);
    }

    /**
     * Full-row read with ECC scrub: corrects single-bit errors in place
     * and counts uncorrectable ones (the hardware detects but cannot fix
     * 2-bit errors). Returns the row pointer post-correction.
     */
    const uint8_t *
    readRow(int row)
    {
        uint8_t *p = rowPtr(row);
        if (modelEcc_)
            scrubRow(row, p);
        return p;
    }

    /** Flip one stored bit (fault injection for ECC tests). */
    void
    flipBit(int row, int bit)
    {
        panic_if(bit < 0 || bit >= rowBytes_ * 8, "bit %d out of row", bit);
        rowPtr(row)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }

    const EccStats &eccStats() const { return eccStats_; }

    void
    clear()
    {
        std::fill(storage_.begin(), storage_.end(), 0);
        if (modelEcc_)
            rewriteAllChecks();
        eccStats_ = EccStats{};
    }

  private:
    void
    rewriteRowChecks(int row)
    {
        const uint8_t *p = rowPtr(row);
        uint8_t *c = checks_.data() +
            static_cast<size_t>(row) * (rowBytes_ / 8);
        for (int g = 0; g < rowBytes_ / 8; ++g) {
            uint64_t w;
            std::memcpy(&w, p + g * 8, 8);
            c[g] = eccEncode(w);
        }
    }

    void
    rewriteAllChecks()
    {
        for (int r = 0; r < rows_; ++r)
            rewriteRowChecks(r);
    }

    void
    scrubRow(int row, uint8_t *p)
    {
        const uint8_t *c = checks_.data() +
            static_cast<size_t>(row) * (rowBytes_ / 8);
        for (int g = 0; g < rowBytes_ / 8; ++g) {
            uint64_t w;
            std::memcpy(&w, p + g * 8, 8);
            EccResult res = eccDecode(w, c[g]);
            if (res.correctedError) {
                ++eccStats_.corrected;
                std::memcpy(p + g * 8, &res.data, 8);
            } else if (res.uncorrectable) {
                ++eccStats_.uncorrectable;
            }
        }
    }

    const char *name_;
    int rows_;
    int rowBytes_;
    bool modelEcc_;
    std::vector<uint8_t> storage_;
    std::vector<uint8_t> checks_;
    EccStats eccStats_;
};

} // namespace ncore

#endif // NCORE_NCORE_RAM_H
