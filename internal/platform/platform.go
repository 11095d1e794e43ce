// Package platform models the heterogeneous master-worker star platforms of
// the divisible-load scheduling framework (RR-5738, Section 2.1).
//
// A platform is a master P0 and p workers P1..Pp. In the linear cost model
// each worker Pi is described by three per-load-unit costs:
//
//	C — time to send one load unit of input data from the master to Pi,
//	W — time for Pi to process one load unit,
//	D — time to send one load unit of results from Pi back to the master.
//
// The paper assumes D = z·C for an application-wide constant z (the ratio of
// result size to input size); the package detects whether a platform honours
// that relation. A bus platform is a star whose links are identical (all C
// equal, all D equal).
//
// The package also provides the random platform generators used by the
// paper's experimental section: speeds are drawn uniformly from {1..10}
// (1 = the speed of the reference node, 10 = ten times faster) and converted
// to costs by dividing reference costs by the speed, reproducing the
// "simulate heterogeneity by speeding up" methodology of Section 5.2.
package platform

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/numeric"
)

// Worker holds the linear per-load-unit costs of one worker.
type Worker struct {
	// Name is an optional label used in traces and error messages.
	Name string `json:"name,omitempty"`
	// C is the forward communication cost: time per load unit of the
	// initial message from the master.
	C float64 `json:"c"`
	// W is the computation cost: time per load unit of processing.
	W float64 `json:"w"`
	// D is the return communication cost: time per load unit of the result
	// message back to the master.
	D float64 `json:"d"`
}

// Platform is a star network: a master (implicit, with no processing
// capability, per the paper's normalization) and a list of workers.
type Platform struct {
	Workers []Worker `json:"workers"`
}

// New builds a platform from explicit worker cost triples.
func New(workers ...Worker) *Platform {
	p := &Platform{Workers: make([]Worker, len(workers))}
	copy(p.Workers, workers)
	p.defaultNames()
	return p
}

// defaultNames labels every unnamed worker Pi, with i its 1-based index.
func (p *Platform) defaultNames() {
	for i := range p.Workers {
		if p.Workers[i].Name == "" {
			p.Workers[i].Name = "P" + strconv.Itoa(i+1)
		}
	}
}

// Normalize finishes a platform decoded from a worker list: it labels
// the unnamed workers Pi, as New does, and validates the result. It is
// the last step of every decoder of the wire format: UnmarshalJSON here
// and the request decoder of package dls.
func (p *Platform) Normalize() error {
	p.defaultNames()
	return p.Validate()
}

// NewBus builds a bus platform: all workers share the communication costs c
// (forward) and d (return) but have individual computation costs ws.
func NewBus(c, d float64, ws ...float64) *Platform {
	workers := make([]Worker, len(ws))
	for i, w := range ws {
		workers[i] = Worker{C: c, D: d, W: w}
	}
	return New(workers...)
}

// P returns the number of workers.
func (p *Platform) P() int { return len(p.Workers) }

// Clone returns a deep copy.
func (p *Platform) Clone() *Platform {
	return New(p.Workers...)
}

// Validate checks that the platform is well formed: at least one worker and
// strictly positive, finite costs everywhere. The linear model degenerates
// when any cost is zero or negative (a zero C would let the LP ship load for
// free), so those are rejected.
func (p *Platform) Validate() error {
	if len(p.Workers) == 0 {
		return fmt.Errorf("platform: no workers")
	}
	for i, w := range p.Workers {
		for _, v := range []struct {
			name string
			val  float64
		}{{"c", w.C}, {"w", w.W}, {"d", w.D}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
				return fmt.Errorf("platform: worker %d (%s): %s is not finite", i, w.Name, v.name)
			}
			if v.val <= 0 {
				return fmt.Errorf("platform: worker %d (%s): %s = %g must be > 0", i, w.Name, v.name, v.val)
			}
		}
	}
	return nil
}

// zTolerance is the relative tolerance used when checking D = z·C across
// workers; platform parameters typically come from measured or generated
// float data. It is the repository-wide shape-detection tolerance of
// internal/numeric.
const zTolerance = numeric.RatioTol

// Z returns the common return/forward ratio z = D/C if it is shared (within
// a relative tolerance) by all workers, and reports whether it exists. Many
// results of the paper require a common z.
func (p *Platform) Z() (float64, bool) {
	if len(p.Workers) == 0 {
		return 0, false
	}
	z := p.Workers[0].D / p.Workers[0].C
	for _, w := range p.Workers[1:] {
		zi := w.D / w.C
		if math.Abs(zi-z) > zTolerance*(1+math.Abs(z)) {
			return 0, false
		}
	}
	return z, true
}

// IsBus reports whether all workers share both communication costs, i.e.
// the star degenerates to a bus.
func (p *Platform) IsBus() bool {
	if len(p.Workers) == 0 {
		return false
	}
	c0, d0 := p.Workers[0].C, p.Workers[0].D
	for _, w := range p.Workers[1:] {
		if math.Abs(w.C-c0) > zTolerance*(1+c0) || math.Abs(w.D-d0) > zTolerance*(1+d0) {
			return false
		}
	}
	return true
}

// HashFloats returns an FNV-1a hash over the exact float64 bit patterns of
// the given slices, each prefixed with its length. The dls engine's cache
// keys hash affine cost slices with it.
func HashFloats(slices ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, vs := range slices {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(vs)))
		h.Write(buf[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Fingerprint returns a stable identifier of the platform's cost structure:
// a hash over every worker's (C, W, D) costs, prefixed with the worker
// count. Worker names are excluded — they never influence scheduling
// mathematics — so two platforms that differ only in labels share a
// fingerprint.
func (p *Platform) Fingerprint() string {
	return string(p.AppendFingerprint(nil))
}

// AppendFingerprint appends Fingerprint to b without allocating: the
// dls engine builds its cache keys on it. The hash takes one pass over
// Workers, folding in each worker's C, W and D bit patterns.
func (p *Platform) AppendFingerprint(b []byte) []byte {
	h := fnv.New64a()
	var buf [24]byte
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(p.Workers))))
	for _, w := range p.Workers {
		word := binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(w.C))
		word = binary.LittleEndian.AppendUint64(word, math.Float64bits(w.W))
		h.Write(binary.LittleEndian.AppendUint64(word, math.Float64bits(w.D)))
	}
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(len(p.Workers)), 10)
	b = append(b, '-')
	sum := h.Sum64()
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	return b
}

// Order is a permutation of worker indices (0-based into Workers).
type Order []int

// Identity returns the identity order of length n.
func Identity(n int) Order {
	o := make(Order, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// Reverse returns the reversed order.
func (o Order) Reverse() Order {
	r := make(Order, len(o))
	for i, v := range o {
		r[len(o)-1-i] = v
	}
	return r
}

// Clone returns a copy of the order.
func (o Order) Clone() Order {
	r := make(Order, len(o))
	copy(r, o)
	return r
}

// Valid reports whether o is a permutation of {0..n-1}.
func (o Order) Valid(n int) bool {
	if len(o) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range o {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// ByC returns worker indices sorted by non-decreasing C (ties broken by
// index for determinism). Theorem 1: this is the optimal FIFO order for
// z < 1.
func (p *Platform) ByC() Order {
	return p.sortedBy(func(a, b *Worker) bool { return a.C < b.C })
}

// ByCDesc returns worker indices sorted by non-increasing C, the optimal
// FIFO send order when z > 1.
func (p *Platform) ByCDesc() Order {
	return p.sortedBy(func(a, b *Worker) bool { return a.C > b.C })
}

// ByW returns worker indices sorted by non-decreasing W (the INC_W
// heuristic's order: fastest-computing workers first).
func (p *Platform) ByW() Order {
	return p.sortedBy(func(a, b *Worker) bool { return a.W < b.W })
}

// sortedBy stably sorts the worker indices by less, keeping index order
// among workers neither precedes.
func (p *Platform) sortedBy(less func(a, b *Worker) bool) Order {
	o := Identity(p.P())
	slices.SortStableFunc(o, func(i, j int) int {
		switch {
		case less(&p.Workers[i], &p.Workers[j]):
			return -1
		case less(&p.Workers[j], &p.Workers[i]):
			return 1
		}
		return 0
	})
	return o
}

// Permuted returns a new platform whose workers are reordered according to
// ord: worker i of the result is Workers[ord[i]].
func (p *Platform) Permuted(ord Order) *Platform {
	if !ord.Valid(p.P()) {
		panic(fmt.Sprintf("platform: invalid order %v for %d workers", ord, p.P()))
	}
	ws := make([]Worker, len(ord))
	for i, idx := range ord {
		ws[i] = p.Workers[idx]
	}
	return New(ws...)
}

// ScaleComputation multiplies every computation cost by f (f < 1 speeds
// computation up). Used by the Section 5.3.3 ratio experiments.
func (p *Platform) ScaleComputation(f float64) *Platform {
	q := p.Clone()
	for i := range q.Workers {
		q.Workers[i].W *= f
	}
	return q
}

// ScaleCommunication multiplies every communication cost (both directions)
// by f.
func (p *Platform) ScaleCommunication(f float64) *Platform {
	q := p.Clone()
	for i := range q.Workers {
		q.Workers[i].C *= f
		q.Workers[i].D *= f
	}
	return q
}

// String renders a compact table of the platform.
func (p *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform with %d workers:\n", p.P())
	for i, w := range p.Workers {
		fmt.Fprintf(&b, "  %-6s c=%-10.6g w=%-10.6g d=%-10.6g\n", fmt.Sprintf("%s(%d)", w.Name, i), w.C, w.W, w.D)
	}
	if z, ok := p.Z(); ok {
		fmt.Fprintf(&b, "  common z = d/c = %.6g", z)
		if p.IsBus() {
			b.WriteString(" (bus)")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// UnmarshalJSON implements json.Unmarshaler: it decodes the worker list
// and normalizes the result (default names, validation).
func (p *Platform) UnmarshalJSON(data []byte) error {
	type alias Platform
	if err := json.Unmarshal(data, (*alias)(p)); err != nil {
		return err
	}
	return p.Normalize()
}
