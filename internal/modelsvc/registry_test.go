package modelsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg.Clock = &mlmath.ManualClock{T: time.Unix(1700000000, 0)}
	return reg
}

func testMLP(seed uint64) *nn.MLP {
	return nn.NewMLP([]int{3, 6, 1}, nn.Tanh{}, nn.Identity{}, mlmath.NewRNG(seed))
}

func TestRegistryPublishLoadRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	src := testMLP(1)
	man, err := PublishModule(reg, "cardest-mlp", src, map[string]string{"trigger": "test"})
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 1 || man.Name != "cardest-mlp" {
		t.Fatalf("unexpected manifest %+v", man)
	}
	if man.ArchHash != nn.ArchHash(src) {
		t.Error("manifest arch hash does not match the model")
	}
	if man.CreatedUnixNano != time.Unix(1700000000, 0).UnixNano() {
		t.Errorf("manifest timestamp did not come from the injected clock: %d", man.CreatedUnixNano)
	}

	dst := testMLP(99)
	got, err := LoadModule(reg, "cardest-mlp", 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("latest version = %d, want 1", got.Version)
	}
	for i, probe := range randInputs(3, 16, 3) {
		a, b := src.Forward(probe)[0], dst.Forward(probe)[0]
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("probe %d: loaded model predicts %v, published %v", i, b, a)
		}
	}
}

func TestRegistryVersionsIncrease(t *testing.T) {
	reg := testRegistry(t)
	m := testMLP(2)
	for want := 1; want <= 3; want++ {
		man, err := PublishModule(reg, "line", m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if man.Version != want {
			t.Fatalf("version = %d, want %d", man.Version, want)
		}
	}
	list, err := reg.List("line")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("List returned %d manifests, want 3", len(list))
	}
	for i, man := range list {
		if man.Version != i+1 {
			t.Fatalf("List order broken: %+v", list)
		}
	}
	if _, latest, err := reg.Load("line", 0); err != nil || latest.Version != 3 {
		t.Fatalf("Load(line, 0) = %+v, %v, want version 3", latest, err)
	}
}

func TestRegistryLoadMissing(t *testing.T) {
	reg := testRegistry(t)
	if _, _, err := reg.Load("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, _, err := reg.Load("ghost", 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestRegistryRejectsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testMLP(3)
	man, err := PublishModule(reg, "line", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored checkpoint behind the registry's back.
	path := filepath.Join(dir, "line", "v000001.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = reg.Load("line", man.Version)
	var ierr *IntegrityError
	if !errors.As(err, &ierr) {
		t.Fatalf("want *IntegrityError, got %v", err)
	}
	// Truncation is also caught by the manifest checksum.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Load("line", man.Version); !errors.As(err, &ierr) {
		t.Fatalf("want *IntegrityError on truncation, got %v", err)
	}
}

func TestRegistryRejectsArchMismatch(t *testing.T) {
	reg := testRegistry(t)
	if _, err := PublishModule(reg, "line", testMLP(4), nil); err != nil {
		t.Fatal(err)
	}
	other := nn.NewMLP([]int{3, 7, 1}, nn.Tanh{}, nn.Identity{}, mlmath.NewRNG(5))
	_, err := LoadModule(reg, "line", 0, other)
	var aerr *ArchMismatchError
	if !errors.As(err, &aerr) {
		t.Fatalf("want *ArchMismatchError, got %v", err)
	}
	// The mismatched load must not have touched the model.
	probe := []float64{1, 2, 3}
	fresh := nn.NewMLP([]int{3, 7, 1}, nn.Tanh{}, nn.Identity{}, mlmath.NewRNG(5))
	if other.Forward(probe)[0] != fresh.Forward(probe)[0] {
		t.Error("rejected load mutated the model")
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	reg := testRegistry(t)
	for _, name := range []string{"", "..", "a/b", "a\\b", "a b", "../escape"} {
		if _, err := reg.Publish(name, "h", nil, func(w io.Writer) error { return nil }); err == nil {
			t.Errorf("Publish accepted invalid name %q", name)
		}
	}
}

// FuzzRegistryLoad writes a fuzzed manifest and payload as version 1 of a
// model line in a fresh registry. List, Load and LoadModule must not panic,
// and every payload Load returns must hash to its manifest's checksum.
// Seeds are in testdata/fuzz/FuzzRegistryLoad.
func FuzzRegistryLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest, payload []byte) {
		dir := t.TempDir()
		line := filepath.Join(dir, "line")
		if err := os.MkdirAll(line, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(line, "v000001.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(line, "v000001.ckpt"), payload, 0o644); err != nil {
			t.Fatal(err)
		}
		reg, err := OpenRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = reg.List("line")
		for _, version := range []int{0, 1} {
			got, man, err := reg.Load("line", version)
			if err != nil {
				continue
			}
			if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != man.Checksum {
				t.Fatalf("Load(line, %d) returned a payload with sha256 %x, manifest declares %s", version, sum, man.Checksum)
			}
		}
		_, _ = LoadModule(reg, "line", 0, testMLP(1))
	})
}
