/**
 * @file
 * Fixed machine parameters of Ncore and the CHA SoC, from the paper
 * (sections III, IV). Everything that the paper states as a number lives
 * here so benches and the simulator agree on a single source of truth.
 *
 * The slice count and RAM geometry are configurable at Machine
 * construction (the paper stresses that the slice-based layout was
 * "easy to slice and expand"); these constants are the shipped CHA
 * configuration.
 */

#ifndef NCORE_COMMON_MACHINE_H
#define NCORE_COMMON_MACHINE_H

#include <cstdint>

namespace ncore {

/** Geometry and clocking of one Ncore configuration. */
struct MachineConfig
{
    /// SIMD slices; the shipped part has 16 (IV-B).
    int slices = 16;
    /// Bytes per slice; 256 in CHA, giving a 4096-byte row.
    int sliceBytes = 256;
    /// Rows in each of the data and weight SRAM banks, per slice: 2048
    /// rows of sliceBytes (IV-B), i.e. 512 KB data + 512 KB weight/slice.
    int ramRows = 2048;
    /// Core clock in Hz; Ncore shares CHA's single 2.5 GHz domain.
    double clockHz = 2.5e9;

    /** Bytes in one full SIMD row. */
    int rowBytes() const { return slices * sliceBytes; }
    /** MAC units = bytewise lanes. */
    int lanes() const { return rowBytes(); }
    /** Total data RAM bytes. */
    int64_t dataRamBytes() const { return int64_t(ramRows) * rowBytes(); }
    /** Total weight RAM bytes. */
    int64_t weightRamBytes() const { return dataRamBytes(); }
};

/** CHA SoC-level parameters (paper section III). */
struct SocConfig
{
    int x86Cores = 8;
    double clockHz = 2.5e9;
    /// Ring: 512 bits wide per direction, 1 cycle per hop.
    int ringBytesPerCycle = 64;
    int ringStops = 12; // 8 cores + Ncore + I/O + 2 memory controllers.
    /// DDR4-3200 x 4 channels = 102.4 GB/s peak.
    double dramPeakBytesPerSec = 102.4e9;
    /// Achievable streaming efficiency applied to the peak.
    double dramEfficiency = 0.85;
    /// Shared L3: 2 MB per core slice.
    int64_t l3Bytes = 16ll << 20;
    /// DMA window the driver exposes to Ncore (IV-C).
    int64_t dmaWindowBytes = 4ll << 30;
};

/** The shipped CHA configuration used throughout the evaluation. */
inline MachineConfig
chaNcoreConfig()
{
    return MachineConfig{};
}

inline SocConfig
chaSocConfig()
{
    return SocConfig{};
}

} // namespace ncore

#endif // NCORE_COMMON_MACHINE_H
