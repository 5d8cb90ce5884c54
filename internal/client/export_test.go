package client

// MaxHandles exposes the per-connection handle-table bound to the
// package's external tests.
const MaxHandles = maxHandles
