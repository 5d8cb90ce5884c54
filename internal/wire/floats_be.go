//go:build !(386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mips64le || mips64p32le || mipsle || nios2 || ppc64le || riscv || riscv64 || sh || wasm)

package wire

// hostLE: a big-endian host stores the RESULT vector element by element
// through the portable loops.
const hostLE = false
