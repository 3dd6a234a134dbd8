package simulate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Committed engine digests: the SHA-256 of a run's serial CSV log plus
// its Stats, keyed by test name, for every property-sweep config and every
// differential scenario. The differential tests compare the event cores
// with each other, so a change to a helper both cores share (admit,
// solveScope, commitScope, …) moves them in lockstep and only an absolute
// pin can see it. Regenerate deliberately with:
//
//	go test ./internal/simulate/ -run 'TestPropertyRandomWorlds|TestDifferential' -update
var update = flag.Bool("update", false, "regenerate testdata/engine_digests.json")

const engineDigestPath = "testdata/engine_digests.json"

var engineDigests struct {
	sync.Mutex
	m map[string]string
}

// engineDigest hashes a run's CSV log and stats.
func engineDigest(csv []byte, st Stats) string {
	h := sha256.New()
	h.Write(csv)
	fmt.Fprintf(h, "%+v", st)
	return hex.EncodeToString(h.Sum(nil))
}

// checkEngineDigest compares a run against the digest committed under
// t.Name(); with -update it records the digest instead (merging into the
// file, so a -short or -run subset keeps the other entries).
func checkEngineDigest(t *testing.T, csv []byte, st Stats) {
	t.Helper()
	got := engineDigest(csv, st)
	engineDigests.Lock()
	defer engineDigests.Unlock()
	if engineDigests.m == nil {
		engineDigests.m = map[string]string{}
		b, err := os.ReadFile(engineDigestPath)
		switch {
		case err == nil:
			if err := json.Unmarshal(b, &engineDigests.m); err != nil {
				t.Fatal(err)
			}
		case !*update:
			t.Fatalf("%v (run with -update to create it)", err)
		}
	}
	if !*update {
		if want, ok := engineDigests.m[t.Name()]; !ok {
			t.Errorf("no committed engine digest (run with -update)")
		} else if got != want {
			t.Errorf("engine digest %s, committed %s", got[:16], want[:16])
		}
		return
	}
	engineDigests.m[t.Name()] = got
	b, err := json.MarshalIndent(engineDigests.m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(engineDigestPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(engineDigestPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
