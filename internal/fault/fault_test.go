package fault

import (
	"math"
	"math/rand"
	"testing"

	"pulphd/internal/hv"
)

// TestBERZeroIsIdentity pins the BER=0 contract for every corruption
// entry point: no bit changes, bit for bit.
func TestBERZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Model{BER: 0, Seed: 99}

	v := hv.NewRandom(1000, rng)
	ref := v.Clone()
	if flips := m.CorruptVector(SiteOf(PointAM, 3), v); flips != 0 {
		t.Fatalf("BER=0 CorruptVector flipped %d bits", flips)
	}
	if !hv.Equal(v, ref) {
		t.Fatal("BER=0 CorruptVector changed the vector")
	}

	words := make([]uint32, 32)
	for i := range words {
		words[i] = rng.Uint32()
	}
	refW := append([]uint32(nil), words...)
	if flips := m.CorruptWords(SiteOf(PointDMA, 0), words, len(words)*32); flips != 0 {
		t.Fatalf("BER=0 CorruptWords flipped %d bits", flips)
	}
	for i := range words {
		if words[i] != refW[i] {
			t.Fatalf("BER=0 CorruptWords changed word %d", i)
		}
	}

	xs := []float64{1.5, -2.25, math.Pi, 0}
	refX := append([]float64(nil), xs...)
	if flips := m.CorruptFloats(SiteOf(PointSVM, 0), xs); flips != 0 {
		t.Fatalf("BER=0 CorruptFloats flipped %d bits", flips)
	}
	for i := range xs {
		if xs[i] != refX[i] {
			t.Fatalf("BER=0 CorruptFloats changed element %d", i)
		}
	}
}

// TestSeededDeterminism pins that the flip pattern is a pure function
// of (seed, site, bit): repeated runs and arbitrary split/merge of the
// same buffer produce identical corruption.
func TestSeededDeterminism(t *testing.T) {
	const d = 2777 // odd tail on purpose
	m := Model{BER: 0.02, Seed: 12345}
	rng := rand.New(rand.NewSource(2))
	base := hv.NewRandom(d, rng)

	a := base.Clone()
	b := base.Clone()
	fa := m.CorruptVector(SiteOf(PointIM, 7), a)
	fb := m.CorruptVector(SiteOf(PointIM, 7), b)
	if fa != fb || !hv.Equal(a, b) {
		t.Fatalf("same seed+site disagreed: %d vs %d flips", fa, fb)
	}
	if fa == 0 {
		t.Fatal("BER=2% over 2777 bits flipped nothing — implausible")
	}

	// A different seed or a different site must draw an independent
	// pattern (with overwhelming probability, a different one).
	c := base.Clone()
	Model{BER: 0.02, Seed: 54321}.CorruptVector(SiteOf(PointIM, 7), c)
	if hv.Equal(a, c) {
		t.Fatal("different seeds produced the same flips")
	}
	e := base.Clone()
	m.CorruptVector(SiteOf(PointIM, 8), e)
	if hv.Equal(a, e) {
		t.Fatal("different sites produced the same flips")
	}
}

// TestWorkerCountIndependence simulates different parallel splits of
// one DMA buffer: corrupting the whole buffer at once and corrupting
// word sub-ranges concurrently must yield the same bits, because each
// flip depends only on its global bit index.
func TestWorkerCountIndependence(t *testing.T) {
	const words = 64
	m := Model{BER: 0.05, Seed: 7}
	rng := rand.New(rand.NewSource(3))
	base := make([]uint32, words)
	for i := range base {
		base[i] = rng.Uint32()
	}

	whole := append([]uint32(nil), base...)
	m.CorruptWords(SiteOf(PointDMA, 1), whole, words*32)

	for _, workers := range []int{1, 2, 3, 8} {
		split := append([]uint32(nil), base...)
		done := make(chan struct{}, workers)
		chunk := (words + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > words {
				hi = words
			}
			go func(lo, hi int) {
				// Each worker corrupts only its word range; masks are
				// computed from global bit indices, so the union is
				// exactly the whole-buffer pattern.
				for i := lo; i < hi; i++ {
					sub := split[i : i+1]
					if mask := m.Mask32(SiteOf(PointDMA, 1), i, words*32); mask != 0 {
						sub[0] ^= mask
					}
				}
				done <- struct{}{}
			}(lo, hi)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
		for i := range split {
			if split[i] != whole[i] {
				t.Fatalf("workers=%d: word %d differs from serial corruption", workers, i)
			}
		}
	}
}

// TestFlipRate sanity-checks the channel statistics: the observed flip
// fraction concentrates near the configured BER.
func TestFlipRate(t *testing.T) {
	const d = 200_000
	for _, ber := range []float64{0.001, 0.01, 0.1, 0.5} {
		m := Model{BER: ber, Seed: 11}
		v := hv.New(d)
		flips := m.CorruptVector(SiteOf(PointAM, 0), v)
		got := float64(flips) / d
		// 6-sigma band for a binomial(d, ber).
		sigma := math.Sqrt(ber * (1 - ber) / d)
		if math.Abs(got-ber) > 6*sigma+1e-9 {
			t.Errorf("BER %g: observed flip rate %g", ber, got)
		}
		if flips != v.CountOnes() {
			t.Errorf("BER %g: reported %d flips but %d bits set", ber, flips, v.CountOnes())
		}
	}
}

// TestTailInvariant pins that corruption never sets bits above the
// dimension in the final packed word.
func TestTailInvariant(t *testing.T) {
	m := Model{BER: 1, Seed: 0} // flip everything
	v := hv.New(70)             // 3 words, 6 valid tail bits
	m.CorruptVector(SiteOf(PointCIM, 0), v)
	if v.CountOnes() != 70 {
		t.Fatalf("BER=1 set %d of 70 bits", v.CountOnes())
	}
	if _, err := hv.FromWords(70, v.Words()); err != nil {
		t.Fatalf("tail invariant broken: %v", err)
	}

	words := []uint32{0, 0, 0}
	m.CorruptWords(SiteOf(PointDMA, 2), words, 70)
	if words[2]&^((1<<6)-1) != 0 {
		t.Fatalf("CorruptWords set bits above validBits: %08x", words[2])
	}
}

// TestValidate covers the range check.
func TestValidate(t *testing.T) {
	if err := (Model{BER: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Model{BER: -0.1}).Validate(); err == nil {
		t.Fatal("negative BER accepted")
	}
	if err := (Model{BER: 1.5}).Validate(); err == nil {
		t.Fatal("BER > 1 accepted")
	}
}
