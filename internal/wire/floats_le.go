//go:build 386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mips64le || mips64p32le || mipsle || nios2 || ppc64le || riscv || riscv64 || sh || wasm

package wire

// hostLE: float64 bits sit in memory in the wire's byte order, so a
// RESULT vector goes to the socket from its own memory and is decoded
// with one copy.
const hostLE = true
