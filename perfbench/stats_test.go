package main

import "testing"

func TestSummarizeMedianAndSupportedTail(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{
		{5, 0}, {10, 0}, {11, 0}, {25, 60}, {100, 90}, {345, 97}, {999, 98}, {1000, 99}, {100000, 99},
	} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(tc.n - i) // reversed, so summarize must sort
		}
		d := summarize(s)
		if d.N != tc.n || d.TailPct != tc.pct {
			t.Errorf("n=%d: got N=%d tail p%d, want p%d", tc.n, d.N, d.TailPct, tc.pct)
		}
		if want := float64((tc.n + 1) / 2); d.P50 != want {
			t.Errorf("n=%d: median %g, want %g", tc.n, d.P50, want)
		}
		if d.TailPct == 0 {
			continue
		}
		if beyond := tc.n - int(d.Tail); beyond < minBeyond {
			t.Errorf("n=%d: p%d=%g leaves %d samples beyond it, want ≥ %d", tc.n, d.TailPct, d.Tail, beyond, minBeyond)
		}
		if d.TailPct < maxTail {
			// One percentile higher would leave fewer than minBeyond.
			if beyond := tc.n - 1 - rank(tc.n, d.TailPct+1); beyond >= minBeyond {
				t.Errorf("n=%d: p%d also leaves %d beyond; p%d is not the highest", tc.n, d.TailPct+1, beyond, d.TailPct)
			}
		}
	}
	if d := summarize(nil); d.N != 0 || d.TailPct != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}
