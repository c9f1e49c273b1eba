package eval

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
)

// Golden values of the seeded MNIST 9->2 scenario trained for three
// rounds. They pin the model's arithmetic, not just its self-consistency:
// a kernel or layer rewrite that shifts every code path together still
// changes these.
const goldenParamsFNV64a = 0x5bd7557722ee26e0

var (
	goldenRAPOrder = []int{10, 0, 7, 2, 9, 15, 13, 5, 14, 4, 3, 8, 1, 6, 12, 11}
	goldenMVPOrder = []int{0, 2, 5, 7, 9, 10, 13, 15, 1, 3, 4, 6, 8, 11, 12, 14}
)

// Golden outcome of the FP+AW pipeline (eval's "fp+aw" mode: MVP pruning,
// AW on, fine-tuning off) run on that three-round model: the defended
// model's parameter digest, the units left pruned, and the post-defense
// test accuracy and attack success rate as exact float64 bits. They pin
// the eval-mode forward, the prune sweep and the AW ladder end to end.
const (
	goldenDefendedFNV64a  = 0x549831dd74cd5fa9
	goldenDefendedTABits  = 0x40456db6db6db6db
	goldenDefendedASRBits = 0x403f1c71c71c71c7
)

var goldenDefendedPruned = []int{0, 2, 5, 7, 9, 10, 13, 15, 1, 3, 4, 6, 8}

// paramsDigest is the FNV-64a hash of the little-endian IEEE-754 bits of
// every parameter, in ParamsVector order.
func paramsDigest(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenMNISTDigest trains the seeded scenario for three rounds and
// compares the trained parameters and both global prune orders on the
// last conv layer against pinned values, then defends the model with the
// FP+AW pipeline and compares its outcome too.
func TestGoldenMNISTDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values are amd64 arithmetic; arm64 fuses multiply-adds")
	}
	s := MNISTScenario(9, 2)
	s.FL.Rounds = 3
	tr := Run(s)

	if got := paramsDigest(tr.Server.Model.ParamsVector()); got != goldenParamsFNV64a {
		t.Errorf("params digest = %#x, want %#x", got, uint64(goldenParamsFNV64a))
	}

	clients := fl.ReportClients(tr.Participants)
	li := tr.Server.Model.LastConvIndex()
	for _, tc := range []struct {
		method core.PruneMethod
		want   []int
	}{{core.RAP, goldenRAPOrder}, {core.MVP, goldenMVPOrder}} {
		cfg := core.DefaultPipelineConfig()
		cfg.Method = tc.method
		if got := core.GlobalPruneOrder(tr.Server.Model, clients, li, cfg); !slices.Equal(got, tc.want) {
			t.Errorf("%v prune order = %#v, want %#v", tc.method, got, tc.want)
		}
	}
	m, rep := tr.DefendMode("fp+aw")
	if got := paramsDigest(m.ParamsVector()); got != goldenDefendedFNV64a {
		t.Errorf("defended params digest = %#x, want %#x", got, uint64(goldenDefendedFNV64a))
	}
	if got := rep.Prune.Pruned; !slices.Equal(got, goldenDefendedPruned) {
		t.Errorf("pruned units = %#v, want %#v", got, goldenDefendedPruned)
	}
	for _, tc := range []struct {
		name string
		got  float64
		want uint64
	}{{"TA", tr.ModelTA(m), goldenDefendedTABits}, {"ASR", tr.ModelAA(m), goldenDefendedASRBits}} {
		if bits := math.Float64bits(tc.got); bits != tc.want {
			t.Errorf("post-defense %s = %v (%#x), want %#x", tc.name, tc.got, bits, tc.want)
		}
	}
}
