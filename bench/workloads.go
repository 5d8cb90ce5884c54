package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// stackKind is how far a workload's jobs travel.
type stackKind int

const (
	stackEngine  stackKind = iota // engine.SubmitAsyncInto, in-process
	stackRemote                   // client → one server on loopback
	stackGateway                  // client → gateway → 2 servers
)

// workload names one benchmark workload. The names are the contract later
// issues cite; README.md records why each exists.
type workload struct {
	name    string
	stack   stackKind
	session bool // SUBMIT_DELTA sessions instead of whole-pattern jobs
	churn   bool // never-repeating population instead of the Zipf stream
	// nominalMrefs is the rate of the sequential reference (drive.go) over
	// this workload's loops that reads as machine speed 1.0: what the box
	// that introduced the benchmark did when its neighbours were quiet. It
	// only scales the reported times; comparisons never depend on it.
	nominalMrefs float64
}

var workloadList = []workload{
	{name: "zipf_engine", stack: stackEngine, nominalMrefs: nominalZipf},
	{name: "zipf_remote", stack: stackRemote, nominalMrefs: nominalZipf},
	{name: "zipf_gateway", stack: stackGateway, nominalMrefs: nominalZipf},
	{name: "churn_engine", stack: stackEngine, churn: true, nominalMrefs: 1500},
	{name: "session_remote", stack: stackRemote, session: true, nominalMrefs: 1900},
}

const nominalZipf = 2100

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Fixed load shape and stream geometry (ISSUE 11). Sizes the tests shrink
// live in config; these are part of the workload definitions.
const (
	window      = 16   // async handles each submitter keeps outstanding
	zipfKeys    = 16   // hot-key population
	zipfScale   = 0.5  // HotKeySet scale
	zipfLen     = 8192 // stream length, cycled
	zipfS       = 1.4  // Zipf exponent
	churnScale  = 0.25 // MixedSet-spec scale for the churn population
	sessions    = 4    // resident sessions in session_remote
	deltaBatch  = 16   // deltas per SUBMIT_DELTA
	deltaScale  = 0.5  // DeltaStream base-loop scale
	sampleEvery = 64   // 1 job in sampleEvery is oracle-checked
	ckptEvery   = 256  // session shadow check period, in steps
)

// churnSpecs are workloads.MixedSet's six regime specs (its table is not
// exported): dense-small, dense-hot, sparse-hash, clustered,
// large-exclusive, moderate.
var churnSpecs = []workloads.PatternSpec{
	{Dim: 4000, SPPercent: 70, CHR: 0.9, MO: 2, Locality: 0.6, Work: 6},
	{Dim: 3000, SPPercent: 40, CHR: 0.8, MO: 3, Locality: 0.3, Skew: 2, Work: 5},
	{Dim: 120000, SPPercent: 0.2, CHR: 0.03, MO: 10, Locality: 0.1, Work: 12},
	{Dim: 16000, SPPercent: 25, CHR: 0.3, MO: 3, Locality: 0.9, Work: 8},
	{Dim: 60000, SPPercent: 12, CHR: 0.12, MO: 2, Locality: 0.95, Work: 10},
	{Dim: 10000, SPPercent: 35, CHR: 0.3, MO: 2, Locality: 0.5, Work: 7},
}

// inputs is everything the generators make from the seed; the program
// under test sees only these loops and deltas.
type inputs struct {
	// patterns is the distinct population; stream[j%len] indexes it.
	patterns []*trace.Loop
	stream   []int
	// deltas holds one stream per session (session workloads only).
	deltas []*workloads.DeltaStream
}

func generate(w workload, seed int64, cfg config) inputs {
	switch {
	case w.session:
		in := inputs{deltas: make([]*workloads.DeltaStream, sessions)}
		for i := range in.deltas {
			in.deltas[i] = workloads.NewDeltaStream(cfg.deltaSteps, deltaBatch, deltaScale, seed+int64(i))
			in.patterns = append(in.patterns, in.deltas[i].Base)
		}
		return in
	case w.churn:
		in := inputs{patterns: make([]*trace.Loop, cfg.churnPatterns), stream: make([]int, cfg.churnPatterns)}
		for i := range in.patterns {
			spec := churnSpecs[i%len(churnSpecs)]
			spec.Dim += 64 * (i / len(churnSpecs))
			spec.Seed = seed<<20 + int64(i)
			in.patterns[i] = workloads.Generate(fmt.Sprintf("churn-%04d", i), spec, churnScale)
			in.stream[i] = i
		}
		return in
	default:
		pop := workloads.HotKeySet(zipfKeys, zipfScale)
		index := make(map[*trace.Loop]int, len(pop))
		for i, l := range pop {
			index[l] = i
		}
		in := inputs{patterns: pop, stream: make([]int, zipfLen)}
		for j, l := range workloads.ZipfStream(pop, zipfLen, zipfS, seed) {
			in.stream[j] = index[l]
		}
		return in
	}
}

// digest hashes what the program will be fed, in order: the fingerprint
// sequence of the job stream, or each session's base fingerprint and
// every delta. Same seed ⇒ same digest is the determinism contract.
func (in inputs) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	fps := make([]uint64, len(in.patterns))
	for i, l := range in.patterns {
		fps[i] = l.Fingerprint()
	}
	for _, p := range in.stream {
		put(fps[p])
	}
	for i, ds := range in.deltas {
		put(fps[i])
		for _, batch := range ds.Batches {
			for _, d := range batch {
				put(uint64(uint32(d.Pos))<<32 | uint64(uint32(d.Ref)))
			}
		}
	}
	return h.Sum64()
}
