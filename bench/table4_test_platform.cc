/**
 * @file
 * Regenerates paper Table IV: the evaluated test platform, printed
 * from the simulated system's actual configuration objects (so the
 * table tracks what the benches really run on).
 */

#include <cstdio>

#include "bench/table_util.h"
#include "common/machine.h"
#include "ncore/machine.h"
#include "runtime/driver.h"

int
main()
{
    using namespace ncore;
    MachineConfig mc = chaNcoreConfig();
    SocConfig sc = chaSocConfig();

    printTitle("Table IV -- Ncore test platform (simulated CHA)");
    std::printf("%-22s %s\n", "x86 CPU",
                "8-core Centaur SoC (CNS microarchitecture)");
    std::printf("%-22s L1: 32KB I + 32KB D (per core)\n",
                "x86 CPU caches");
    std::printf("%-22s L2: 256KB (per core); L3: %lldMB shared\n", "",
                (long long)(sc.l3Bytes >> 20));
    std::printf("%-22s %.1fGHz\n", "x86 CPU frequency",
                sc.clockHz / 1e9);
    std::printf("%-22s 1-core, %d-byte SIMD (%d slices x %d B)\n",
                "Ncore", mc.rowBytes(), mc.slices, mc.sliceBytes);
    std::printf("%-22s %.1fGHz (single CHA clock domain)\n",
                "Ncore frequency", mc.clockHz / 1e9);
    std::printf("%-22s %dKB instruction (+%dKB ROM)\n", "Ncore memory",
                2 * Machine::kBankInstrs * 16 / 1024,
                (Machine::kPcSpace - Machine::kRomBase) * 16 / 1024);
    std::printf("%-22s %lldMB data+weight RAM\n", "",
                (long long)((mc.dataRamBytes() + mc.weightRamBytes()) >>
                            20));
    std::printf("%-22s %lldGB system DDR accessible via DMA\n", "",
                (long long)(sc.dmaWindowBytes >> 30));
    std::printf("%-22s %.1f GB/s peak (4ch DDR4-3200)\n",
                "Memory bandwidth", sc.dramPeakBytesPerSec / 1e9);
    std::printf("%-22s %s\n", "ML framework",
                "delegate-style runtime (TFLite-equivalent split)");
    std::printf("%-22s %s\n", "Benchmark",
                "MLPerf Inference v0.5 Closed (reimplemented "
                "scenarios)");

    // Device sanity: the simulated part enumerates and passes its ROM
    // self-test, as the driver would check at bring-up.
    Machine machine(mc, sc);
    NcoreDriver driver(machine);
    driver.powerUp();
    std::printf("\nPCI enumeration: vendor 0x%04x device 0x%04x class "
                "0x%06x; ROM self-test: %s\n",
                driver.identity().vendorId, driver.identity().deviceId,
                driver.identity().classCode,
                driver.selfTest() ? "PASS" : "FAIL");
    return 0;
}
