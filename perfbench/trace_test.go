package main

import "testing"

func TestSelfTimeNeverSilentlyNegative(t *testing.T) {
	self, err := selfTime(200, 120, 0.1, 5)
	if err != nil || self != 200-120-0.1-5 {
		t.Fatalf("selfTime(200, 120, 0.1, 5) = %g, %v", self, err)
	}
	self, err = selfTime(100, 120, 0.1, 5)
	if err == nil {
		t.Fatal("layer times exceeding the round trip gave no error")
	}
	if self >= 0 {
		t.Fatalf("negative self time reported as %g; want the measured negative value", self)
	}
}
