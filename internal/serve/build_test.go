package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/simulate"
)

// buildRegistryDigest is the SHA-256 of the registry file Build writes
// for the SmallConfig pipeline at seed 42. It pins every model, probe
// and byte of the serving artifact, so a change to training, to the
// order Build trains its models in, or to the registry encoder that
// moves one bit shows here.
const buildRegistryDigest = "5422b214f83310db92c68184dc8185425930c3accb856bd8100897e0a62a7e4e"

// TestBuildRegistryDigest checks the digest at the default GOMAXPROCS and
// at 1: Build trains its models on the worker pool, and the file must not
// depend on how many of them run at once or in which order they finish.
func TestBuildRegistryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the SmallConfig registry")
	}
	cfg := simulate.SmallConfig()
	cfg.Seed = 42
	pl, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := pl.StudyEdges()
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		reg, err := Build(context.Background(), pl, edges)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := WriteRegistry(&buf, reg); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != buildRegistryDigest {
			t.Errorf("GOMAXPROCS=%d: registry digest %s, want %s", procs, got, buildRegistryDigest)
		}
	}
}
