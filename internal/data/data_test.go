package data

import (
	"math"
	"testing"

	"demystbert/internal/kernels"
)

func TestBatchStructure(t *testing.T) {
	g := NewGenerator(1000, 0.15, 1)
	b := g.Next(4, 16)
	if b.B != 4 || b.N != 16 {
		t.Fatalf("batch dims %dx%d", b.B, b.N)
	}
	if len(b.Tokens) != 64 || len(b.Segments) != 64 || len(b.MLMTargets) != 64 || len(b.NSPLabels) != 4 {
		t.Fatal("batch array lengths wrong")
	}
	sep := 1 + (16-2)/2
	for s := 0; s < 4; s++ {
		base := s * 16
		if b.Tokens[base] != ClsID {
			t.Fatalf("sequence %d does not start with CLS", s)
		}
		if b.Tokens[base+sep] != SepID {
			t.Fatalf("sequence %d missing SEP at %d", s, sep)
		}
		for i := 0; i < 16; i++ {
			wantSeg := 0
			if i > sep {
				wantSeg = 1
			}
			if b.Segments[base+i] != wantSeg {
				t.Fatalf("segment[%d,%d] = %d, want %d", s, i, b.Segments[base+i], wantSeg)
			}
		}
		if l := b.NSPLabels[s]; l != 0 && l != 1 {
			t.Fatalf("NSP label %d", l)
		}
	}
}

func TestMaskingRate(t *testing.T) {
	g := NewGenerator(1000, 0.15, 2)
	b := g.Next(64, 128)
	rate := float64(b.MaskedCount()) / float64(b.B*b.N)
	// 2 structural tokens per sequence are never masked, so the realized
	// rate is slightly below 0.15.
	if math.Abs(rate-0.15) > 0.02 {
		t.Fatalf("mask rate %v, want ~0.15", rate)
	}
}

func TestMaskedTargetsHoldOriginalTokens(t *testing.T) {
	g := NewGenerator(1000, 0.15, 3)
	b := g.Next(8, 32)
	sawMaskToken := false
	for i, tgt := range b.MLMTargets {
		if tgt == kernels.IgnoreIndex {
			continue
		}
		if tgt < FirstWordID || tgt >= 1000 {
			t.Fatalf("MLM target %d at %d is not an ordinary word", tgt, i)
		}
		if b.Tokens[i] == MaskID {
			sawMaskToken = true
		}
	}
	if !sawMaskToken {
		t.Fatal("no [MASK] tokens placed (80%% rule)")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(500, 0.15, 7).Next(2, 16)
	b := NewGenerator(500, 0.15, 7).Next(2, 16)
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] || a.MLMTargets[i] != b.MLMTargets[i] {
			t.Fatal("same-seed generators must produce identical batches")
		}
	}
}

func TestMaskIsAllZerosForFullSequences(t *testing.T) {
	b := NewGenerator(500, 0.15, 8).Next(2, 8)
	for _, v := range b.Mask.Data() {
		if v != 0 {
			t.Fatal("full-length sequences must have a zero attention mask")
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewGenerator(3, 0.15, 1) },
		func() { NewGenerator(100, 1.0, 1) },
		func() { NewGenerator(100, 0.15, 1).Next(0, 16) },
		func() { NewGenerator(100, 0.15, 1).Next(2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
