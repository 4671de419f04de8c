// Package fault implements deterministic, seed-driven bit-error
// injection for the robustness experiments of the paper's §4.1 ("HD
// computing exhibits graceful degradation with ... faulty components")
// and the in-memory HDC line that builds on it: binary hypervector
// classifiers keep their accuracy under substantial bit-error rates
// (BER), which is what makes low-voltage SRAM and analog item/
// associative memories viable.
//
// The model is an independent bit-flip channel: every stored or
// transferred binary component flips with probability BER. Whether a
// particular bit flips is a pure function of (Seed, Site, bit index) —
// a counter-based hash, not a sequential RNG stream — so injection is
//
//   - reproducible: the same seed produces the same flips run after
//     run, and
//   - order-independent: the flips do not depend on how the caller
//     iterates, batches, or parallelizes the corruption, so results
//     are identical across worker counts.
//
// A BER of zero is an exact identity: no hash is evaluated, no bit is
// touched, and corrupted outputs are bit-identical to the uninjected
// pipeline (pinned by the BER=0 equivalence tests).
//
// Injection points (see DESIGN.md §11): the IM and CIM item memories
// and the AM class prototypes in internal/hdc, the simulated L2→L1
// DMA transfers in internal/pulp (low-voltage TCDM errors), and the
// float parameter memory of the SVM baseline in internal/svm.
package fault

import (
	"fmt"
	"math"

	"pulphd/internal/hv"
)

// Point names one architectural injection point. It is the high byte
// of a Site, so flips at different points are independent even for
// equal element indices.
type Point uint8

// The architectural injection points of the reproduction.
const (
	// PointIM is the item memory: one site per channel seed vector.
	PointIM Point = iota + 1
	// PointCIM is the continuous item memory: one site per level.
	PointCIM
	// PointAM is the associative memory: one site per class prototype.
	PointAM
	// PointDMA is a simulated L2→L1 DMA transfer: one site per
	// transferred buffer (modeling low-voltage TCDM write errors).
	PointDMA
	// PointSVM is the SVM baseline's parameter memory: one site per
	// stored float array.
	PointSVM
)

// String returns the point's short name.
func (p Point) String() string {
	switch p {
	case PointIM:
		return "IM"
	case PointCIM:
		return "CIM"
	case PointAM:
		return "AM"
	case PointDMA:
		return "DMA"
	case PointSVM:
		return "SVM"
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Site identifies one corruptible object — a hypervector, a DMA
// buffer, a parameter array — so that each has an independent flip
// pattern under the same model.
type Site uint64

// SiteOf builds the site id for element index at injection point p
// (e.g. class index for PointAM, level index for PointCIM).
func SiteOf(p Point, index int) Site {
	return Site(uint64(p)<<56 | uint64(uint32(index)))
}

// Model is one bit-error channel: independent flips at rate BER,
// deterministic given Seed and the site. The zero value (BER 0)
// injects nothing and is always safe to apply.
type Model struct {
	// BER is the bit-error rate: the probability, in [0, 1], that any
	// individual stored or transferred bit flips.
	BER float64
	// Seed selects the flip pattern. Two models with different seeds
	// draw independent patterns at the same BER.
	Seed int64
}

// Enabled reports whether the model injects any faults at all.
func (m Model) Enabled() bool { return m.BER > 0 }

// Validate checks that BER is a probability.
func (m Model) Validate() error {
	if m.BER < 0 || m.BER > 1 {
		return fmt.Errorf("fault: BER %g outside [0,1]", m.BER)
	}
	return nil
}

// uniform returns a deterministic uniform in [0,1) for (seed, site,
// counter) with 53 bits of precision. The hash is hv.Splitmix64 — the
// same counter-based mix the rematerializing item-memory backend
// expands its rows with, which is why the two compose: both are pure
// functions of (seed, site, counter) with no sequential state.
func uniform(seed uint64, site Site, counter uint64) float64 {
	h := hv.Splitmix64((seed ^ hv.Splitmix64(uint64(site))) + 0x9e3779b97f4a7c15*counter)
	return float64(h>>11) * (1.0 / (1 << 53))
}

// Flips reports whether bit index `bit` of the object at site flips
// under the model. It is the primitive every corruption routine is
// built from: a pure function, so any iteration order or parallel
// split produces the same flip set.
func (m Model) Flips(site Site, bit int) bool {
	if m.BER <= 0 {
		return false
	}
	if m.BER >= 1 {
		return true
	}
	return uniform(uint64(m.Seed), site, uint64(bit)) < m.BER
}

// Mask32 returns the 32-bit flip mask for packed word w of site,
// restricted to the first validBits components of the vector: bit b of
// the result is set exactly when Flips(site, 32w+b) and 32w+b <
// validBits. XORing this mask into a word applies the channel, which
// is how rematerialized (generated-on-the-fly) hypervectors compose
// fault injection without ever storing the corrupted vector.
func (m Model) Mask32(site Site, w, validBits int) uint32 {
	var mask uint32
	base := w * 32
	n := validBits - base
	if n > 32 {
		n = 32
	}
	for b := 0; b < n; b++ {
		if m.Flips(site, base+b) {
			mask |= 1 << uint(b)
		}
	}
	return mask
}

// Mask64 returns the flip mask for 64-bit block j of site (packed
// words 2j and 2j+1, low word in the low half) restricted to validBits
// components — the block form the rematerializing encode inner loop
// consumes.
func (m Model) Mask64(site Site, j, validBits int) uint64 {
	return uint64(m.Mask32(site, 2*j, validBits)) |
		uint64(m.Mask32(site, 2*j+1, validBits))<<32
}

// CountFlips returns the number of bits the channel flips across the
// first validBits components of site. It is the bookkeeping half of
// corrupting a rematerialized vector family: the flips themselves
// happen lazily at generation time (Mask32/Mask64), but the count must
// match what corrupting a stored copy would have reported.
func (m Model) CountFlips(site Site, validBits int) (flips int) {
	if !m.Enabled() || validBits <= 0 {
		return 0
	}
	nw := (validBits + 31) / 32
	for w := 0; w < nw; w++ {
		flips += popcount32(m.Mask32(site, w, validBits))
	}
	return flips
}

// CorruptWords applies the channel in place to a packed bit buffer of
// validBits components (the layout of hv.Vector and of the simulated
// DMA payloads) and returns the number of bits flipped. Bits at or
// above validBits are never touched, preserving the hv tail-masking
// invariant. BER 0 returns immediately without reading the buffer.
func (m Model) CorruptWords(site Site, words []uint32, validBits int) (flips int) {
	if !m.Enabled() || validBits <= 0 {
		return 0
	}
	if max := len(words) * 32; validBits > max {
		validBits = max
	}
	nw := (validBits + 31) / 32
	for w := 0; w < nw; w++ {
		if mask := m.Mask32(site, w, validBits); mask != 0 {
			words[w] ^= mask
			flips += popcount32(mask)
		}
	}
	return flips
}

// CorruptVector applies the channel in place to a hypervector and
// returns the number of components flipped. The tail invariant is
// preserved through hv.Vector.FlipWordMask.
func (m Model) CorruptVector(site Site, v hv.Vector) (flips int) {
	if !m.Enabled() || v.IsZero() {
		return 0
	}
	d := v.Dim()
	for w := 0; w < v.NumWords(); w++ {
		if mask := m.Mask32(site, w, d); mask != 0 {
			flips += v.FlipWordMask(w, mask)
		}
	}
	return flips
}

// CorruptFloats applies the channel in place to the IEEE-754 bit
// patterns of a float parameter array — the model of keeping a
// classical classifier's weights in the same faulty memory. Each
// float64 spans 64 bit positions of the site, so at a BER of p every
// parameter is hit with probability 1-(1-p)^64 — the mechanism behind
// the SVM's early collapse in the robustness study.
func (m Model) CorruptFloats(site Site, xs []float64) (flips int) {
	if !m.Enabled() || len(xs) == 0 {
		return 0
	}
	for i := range xs {
		var mask uint64
		base := i * 64
		for b := 0; b < 64; b++ {
			if m.Flips(site, base+b) {
				mask |= 1 << uint(b)
			}
		}
		if mask != 0 {
			xs[i] = flipFloatBits(xs[i], mask)
			flips += popcount64(mask)
		}
	}
	return flips
}

// flipFloatBits XORs mask into the IEEE-754 representation of x.
func flipFloatBits(x float64, mask uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ mask)
}

func popcount32(x uint32) int { return popcount64(uint64(x)) }

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
