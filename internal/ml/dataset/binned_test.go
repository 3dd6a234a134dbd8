package dataset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomDataset(t *testing.T, n, p int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		x[i] = row
		y[i] = rng.Float64()
	}
	d, err := New(names, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBinErrors(t *testing.T) {
	d := randomDataset(t, 10, 2, 1)
	for _, bad := range []int{-1, 0, 1, 257, 1000} {
		if _, err := Bin(d, bad); err == nil {
			t.Errorf("Bin(d, %d) did not error", bad)
		}
	}
	empty := &Dataset{Names: []string{"a"}}
	if _, err := Bin(empty, 256); err == nil {
		t.Error("Bin on empty dataset did not error")
	}
}

func TestBinCutsStrictlyIncreasing(t *testing.T) {
	d := randomDataset(t, 500, 3, 2)
	// Inject ties and a constant column to stress the dedup paths.
	for i := range d.X {
		d.X[i][1] = float64(i % 7)
		d.X[i][2] = 3.25
	}
	for _, bins := range []int{2, 4, 16, 256} {
		b, err := Bin(d, bins)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < b.NumFeatures(); f++ {
			cuts := b.Cuts[f]
			if len(cuts) > bins-1 {
				t.Errorf("bins=%d feature %d: %d cuts exceeds maxBins-1", bins, f, len(cuts))
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i] <= cuts[i-1] {
					t.Fatalf("bins=%d feature %d: cuts not strictly increasing at %d", bins, f, i)
				}
			}
		}
		if got := b.NumBins(2); got != 1 {
			t.Errorf("constant column has %d bins, want 1", got)
		}
	}
}

// TestBinCodeMatchesCuts pins the invariant the histogram split search
// relies on: code(v) <= b  ⇔  v <= Cuts[f][b].
func TestBinCodeMatchesCuts(t *testing.T) {
	d := randomDataset(t, 400, 2, 3)
	b, err := Bin(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < b.NumFeatures(); f++ {
		cuts := b.Cuts[f]
		for i, row := range d.X {
			v := row[f]
			code := int(b.Codes[f][i])
			if code != b.Code(f, v) {
				t.Fatalf("feature %d row %d: stored code %d != Code() %d", f, i, code, b.Code(f, v))
			}
			for bin := range cuts {
				if (code <= bin) != (v <= cuts[bin]) {
					t.Fatalf("feature %d row %d: code %d vs cut %d breaks code<=b ⇔ v<=cut",
						f, i, code, bin)
				}
			}
		}
	}
}

// TestBinFewDistinctMatchesExactCandidates checks that a column with at
// most maxBins distinct values gets exactly the adjacent-midpoint cut set
// the exact greedy search would consider.
func TestBinFewDistinctMatchesExactCandidates(t *testing.T) {
	d := randomDataset(t, 200, 1, 4)
	for i := range d.X {
		d.X[i][0] = float64((i * 13) % 9) // 9 distinct values, shuffled order
	}
	b, err := Bin(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 0, len(d.X))
	for _, row := range d.X {
		col = append(col, row[0])
	}
	sort.Float64s(col)
	var want []float64
	for i := 0; i+1 < len(col); i++ {
		if col[i] != col[i+1] {
			want = append(want, col[i]+(col[i+1]-col[i])/2)
		}
	}
	if !reflect.DeepEqual(b.Cuts[0], want) {
		t.Errorf("cuts %v, want adjacent-distinct midpoints %v", b.Cuts[0], want)
	}
	if b.NumBins(0) != 9 {
		t.Errorf("NumBins = %d, want 9", b.NumBins(0))
	}
}

func TestBinQuantileBalance(t *testing.T) {
	// 10k distinct values into 16 bins: each bin should hold roughly
	// n/16 rows when the distribution has no heavy ties.
	d := randomDataset(t, 10000, 1, 5)
	b, err := Bin(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, b.NumBins(0))
	for _, c := range b.Codes[0] {
		counts[c]++
	}
	want := len(d.X) / 16
	for bin, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bin %d holds %d rows, want within [%d,%d]", bin, c, want/2, want*2)
		}
	}
}

func TestBinDeterministic(t *testing.T) {
	d := randomDataset(t, 300, 4, 6)
	b1, err := Bin(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Bin(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("Bin is not deterministic")
	}
}

func TestMidpointAdjacentFloats(t *testing.T) {
	a := 1.0
	b := 1.0 + 2.220446049250313e-16 // next float up
	m := midpoint(a, b)
	if !(m >= a && m < b) {
		t.Errorf("midpoint(%v, %v) = %v not in [a, b)", a, b, m)
	}
}
