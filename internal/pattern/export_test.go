package pattern

// Test-only views of unexported pieces, for the differential tests in
// package pattern_test (which import workloads and adapt, both of which
// import this package).

// InPlaceIter is the in-place distinct-count threshold.
const InPlaceIter = inPlaceIter

// CHDense is the dense CH accumulator's bin count.
const CHDense = chDense

// EstimateSparsityFromSample is the occupancy correction.
var EstimateSparsityFromSample = estimateSparsityFromSample
