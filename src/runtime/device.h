/**
 * @file
 * One brought-up Ncore device ready to run inferences: the machine,
 * the kernel-mode driver (powered up and self-tested), the user-mode
 * runtime with a model loaded, and a delegate executor over it. This
 * is the bring-up sequence every executing caller needs — the serving
 * engine's device contexts, the MLPerf profiles, the examples — in
 * one place. Code that exercises the driver or runtime steps
 * themselves spells them out instead.
 */

#ifndef NCORE_RUNTIME_DEVICE_H
#define NCORE_RUNTIME_DEVICE_H

#include "runtime/delegate.h"
#include "runtime/driver.h"
#include "runtime/runtime.h"

namespace ncore {

/** A CHA Ncore device with `model` loaded. */
struct NcoreDevice
{
    /**
     * Bring the device up on `sysmem` (nullptr = a private system
     * memory; devices sharing one also share the model's streamed
     * weight image) and load `model`. Fails fatally if the ROM
     * self-test does.
     */
    explicit NcoreDevice(SharedModel model, SystemMemory *sysmem = nullptr,
                         const Machine::Options &opts = {});

    NcoreDevice(const NcoreDevice &) = delete;
    NcoreDevice &operator=(const NcoreDevice &) = delete;

    Machine machine;
    NcoreDriver driver;
    NcoreRuntime runtime;
    DelegateExecutor exec;
};

} // namespace ncore

#endif // NCORE_RUNTIME_DEVICE_H
