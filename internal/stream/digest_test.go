package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ml/gbt"
	"repro/internal/simulate"
)

// The refresh digest pins the whole online loop bit for bit: the
// decision sequence with its gate metrics, the blessed ensemble size,
// and the SHA-256 of every registry file a promotion writes, while a
// Refresher ingests a fixed SmallConfig log through warm appends and at
// least one cold retrain. A change to warm-start seeding, drift
// evaluation, training or the registry encoder that moves one bit of a
// prediction or one byte of a file changes it. Regenerate deliberately
// with:
//
//	go test ./internal/stream/ -run TestRefreshDigest -update
var update = flag.Bool("update", false, "regenerate testdata/refresh_digest.json")

const refreshDigestPath = "testdata/refresh_digest.json"

// digestRecords is how much of the SmallConfig log the digest ingests.
const digestRecords = 3000

// refreshStep is one pinned refresh decision.
type refreshStep struct {
	Seq        int          `json:"seq"`
	Action     string       `json:"action"`
	WindowRows int          `json:"window_rows"`
	Promotions int          `json:"promotions"`
	Trees      int          `json:"trees"`
	Metrics    DriftMetrics `json:"metrics"`
	Violations []string     `json:"violations,omitempty"`
	// Registry is the SHA-256 of the registry file after a promotion;
	// empty for a rejection, which must not touch the file.
	Registry string `json:"registry,omitempty"`
}

func TestRefreshDigest(t *testing.T) {
	l, _, err := simulate.GenerateLog(simulate.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) < digestRecords {
		t.Fatalf("SmallConfig log has %d records, need %d", len(l.Records), digestRecords)
	}
	regPath := filepath.Join(t.TempDir(), "registry.json")
	p := gbt.DefaultParams()
	p.Rounds = 30
	p.Bins = 64
	p.Workers = 1
	var steps []refreshStep
	var rf *Refresher
	rf = NewRefresher(RefreshConfig{
		WindowCap:    1024,
		RefreshEvery: 256,
		MinTrain:     256,
		GBT:          p,
		WarmRounds:   10,
		MaxWarmTrees: 70,
		RegistryPath: regPath,
		OnDecision: func(d Decision) {
			s := refreshStep{
				Seq: d.Seq, Action: d.Action, WindowRows: d.WindowRows,
				Promotions: d.Promotions, Trees: rf.Blessed().NumTrees(),
				Metrics: d.Metrics, Violations: d.Violations,
			}
			if d.Action != "reject" {
				b, err := os.ReadFile(regPath)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				s.Registry = hex.EncodeToString(sum[:])
			}
			steps = append(steps, s)
		},
	})
	for _, r := range l.Records[:digestRecords] {
		if err := rf.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	// Then a drifted stretch: the last 512 records again, later and with
	// rates two orders of magnitude off, so the gate has to reject.
	for _, r := range l.Records[digestRecords-512 : digestRecords] {
		r.ID += 1 << 20
		r.Ts += 1000 * 3600
		r.Te += 1000 * 3600
		r.Bytes *= 100
		if err := rf.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	var warm, cold, rejected bool
	for i, s := range steps {
		switch {
		case i == 0:
		case s.Action == "reject":
			rejected = true
		case s.Trees > steps[i-1].Trees:
			warm = true
		default:
			cold = true
		}
	}
	if !warm || !cold || !rejected {
		t.Fatalf("digest run must cover warm and cold promotions and a rejection (warm %v, cold %v, rejected %v): %+v",
			warm, cold, rejected, steps)
	}

	got, err := json.MarshalIndent(steps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(refreshDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(refreshDigestPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d refreshes)", refreshDigestPath, len(steps))
		return
	}
	want, err := os.ReadFile(refreshDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantSteps []refreshStep
	if err := json.Unmarshal(want, &wantSteps); err != nil {
		t.Fatal(err)
	}
	if len(wantSteps) != len(steps) {
		t.Fatalf("%d refreshes, committed digest has %d", len(steps), len(wantSteps))
	}
	for i := range steps {
		g, _ := json.Marshal(steps[i])
		w, _ := json.Marshal(wantSteps[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("refresh %d differs from the committed digest:\n got  %s\n want %s", i+1, g, w)
		}
	}
	t.Fatal("refresh digest differs from the committed file in formatting only (run with -update)")
}
