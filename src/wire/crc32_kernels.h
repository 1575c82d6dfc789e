// The two CRC-32 kernels behind Crc32(), exposed so tests can check each one
// on its own: a dispatching Crc32() only ever runs one of them on a given
// host. Not part of the wire API; call Crc32().
#ifndef GUARDIANS_SRC_WIRE_CRC32_KERNELS_H_
#define GUARDIANS_SRC_WIRE_CRC32_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace guardians::crc32_internal {

// Slicing-by-16 over 16 KiB of compile-time tables; any host, any length.
uint32_t PortableCrc32(const void* data, size_t size);

// True when the host can run FoldingCrc32: an x86 build on a CPU with
// PCLMULQDQ and SSE4.1.
bool FoldingSupported();

// Carry-less-multiply folding (Gopal et al., Intel 2009) for the 16-byte
// blocks of inputs of 64 bytes or more; shorter inputs and the 0-15-byte
// tail go through the slicing-by-16 loop. Only call it when
// FoldingSupported() is true.
uint32_t FoldingCrc32(const void* data, size_t size);

}  // namespace guardians::crc32_internal

#endif  // GUARDIANS_SRC_WIRE_CRC32_KERNELS_H_
