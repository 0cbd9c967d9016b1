package rng

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand pins the property every golden in the repo
// rests on: wrapping changes no value of the stream, whichever mix of
// rand.Rand methods draws from it.
func TestStreamMatchesMathRand(t *testing.T) {
	want := rand.New(rand.NewSource(42))
	src := New(42)
	got := rand.New(src)
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			if a, b := want.Intn(1000), got.Intn(1000); a != b {
				t.Fatalf("draw %d: Intn %d vs %d", i, a, b)
			}
		case 1:
			if a, b := want.Float64(), got.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v vs %v", i, a, b)
			}
		case 2:
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("draw %d: Uint64 %d vs %d", i, a, b)
			}
		case 3:
			if a, b := want.Int31n(7), got.Int31n(7); a != b {
				t.Fatalf("draw %d: Int31n %d vs %d", i, a, b)
			}
		default:
			if a, b := want.Int63(), got.Int63(); a != b {
				t.Fatalf("draw %d: Int63 %d vs %d", i, a, b)
			}
		}
	}
	if src.Draws() == 0 {
		t.Fatal("no draws counted")
	}
}

// TestRestoreResumesStream checks that re-seeding and fast-forwarding
// by the draw count lands on the exact next value.
func TestRestoreResumesStream(t *testing.T) {
	src := New(7)
	r := rand.New(src)
	for i := 0; i < 317; i++ {
		r.Intn(1 + i)
	}
	n := src.Draws()
	next := []int64{r.Int63(), r.Int63(), r.Int63()}

	fresh := New(7)
	fresh.Restore(n)
	if fresh.Draws() != n {
		t.Fatalf("restored draws = %d, want %d", fresh.Draws(), n)
	}
	r2 := rand.New(fresh)
	for i, want := range next {
		if got := r2.Int63(); got != want {
			t.Fatalf("value %d after restore = %d, want %d", i, got, want)
		}
	}
	// Restoring a used source rewinds it too.
	src.Restore(n)
	if got := rand.New(src).Int63(); got != next[0] {
		t.Fatalf("rewound source drew %d, want %d", got, next[0])
	}
}
