/**
 * @file
 * Simulated Ncore kernel-mode driver (paper V-D). Ncore reports itself
 * on the ring as a standard PCI coprocessor; the driver owns the
 * protected configuration that user code must not touch — powering the
 * unit up and down, reserving system DRAM for DMA and programming the
 * DMA base-address window — and regulates memory-mapped access so only
 * one user-mode runtime owns the device at a time.
 */

#ifndef NCORE_RUNTIME_DRIVER_H
#define NCORE_RUNTIME_DRIVER_H

#include <cstdint>

#include "ncore/machine.h"

namespace ncore {

/** PCI configuration-space identity Ncore presents at enumeration. */
struct PciIdentity
{
    uint16_t vendorId = 0x1106;  ///< VIA / Centaur Technology.
    uint16_t deviceId = 0x4e43;  ///< 'NC'.
    uint32_t classCode = 0x0b4000; ///< Coprocessor.
    uint8_t revision = 0x01;
};

/** Kernel-mode driver for one Ncore device. */
class NcoreDriver
{
  public:
    explicit NcoreDriver(Machine &machine) : machine_(machine) {}

    /** PCI enumeration result. */
    PciIdentity identity() const { return PciIdentity{}; }

    /** Power Ncore up and clear its state (protected operation). */
    void
    powerUp()
    {
        if (poweredUp_)
            return;
        machine_.reset();
        poweredUp_ = true;
    }

    /** Program a DMA descriptor (protected: validates the window). */
    void
    writeDescriptor(int idx, const DmaDescriptor &desc)
    {
        fatal_if(!poweredUp_, "descriptor write before power-up");
        machine_.dma().setDescriptor(idx, desc);
    }

    /**
     * Grant exclusive memory-mapped access to a user-mode runtime.
     * The driver "prevents more than one user from simultaneously
     * gaining ownership of Ncore's address space" (paper V-D).
     */
    Machine &
    claim()
    {
        fatal_if(!poweredUp_, "claim before power-up");
        fatal_if(claimed_, "Ncore address space already owned");
        claimed_ = true;
        return machine_;
    }

    void
    release()
    {
        claimed_ = false;
    }

    /** Run the ROM self-test (driver bring-up diagnostic). */
    bool
    selfTest()
    {
        fatal_if(!poweredUp_ || claimed_,
                 "self-test needs a powered, unclaimed device");
        bool ok = machine_.selfTest();
        machine_.reset();
        return ok;
    }

  private:
    Machine &machine_;
    bool poweredUp_ = false;
    bool claimed_ = false;
};

} // namespace ncore

#endif // NCORE_RUNTIME_DRIVER_H
