package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"testing"

	"ml4db/internal/mlmath"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := mlmath.NewRNG(1)
	src := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, rng)
	// Train a little so the weights are non-trivial.
	xs := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	ys := [][]float64{{1, 0}, {0, 1}}
	src.Fit(xs, ys, FitOptions{Epochs: 20, Optimizer: NewAdam(0.01), RNG: rng})

	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, mlmath.NewRNG(99))
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2, 0.7, 0.1}
	a, b := src.Forward(probe), dst.Forward(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ after round trip: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsMismatchedArchitecture(t *testing.T) {
	rng := mlmath.NewRNG(2)
	src := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	// Wrong layer width.
	badWidth := NewMLP([]int{4, 6, 2}, Tanh{}, Identity{}, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), badWidth); err == nil {
		t.Error("expected shape mismatch error")
	}
	// Wrong layer count.
	badDepth := NewMLP([]int{4, 2}, Tanh{}, Identity{}, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), badDepth); err == nil {
		t.Error("expected tensor-count mismatch error")
	}
}

func TestLoadDoesNotPartiallyMutateOnError(t *testing.T) {
	rng := mlmath.NewRNG(3)
	src := NewMLP([]int{3, 5, 1}, Tanh{}, Identity{}, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP([]int{3, 5, 2}, Tanh{}, Identity{}, rng) // mismatched output
	before := dst.Forward([]float64{1, 2, 3})
	if err := LoadParams(&buf, dst); err == nil {
		t.Fatal("expected error")
	}
	after := dst.Forward([]float64{1, 2, 3})
	for i := range before {
		if before[i] != after[i] {
			t.Error("failed load mutated the model")
		}
	}
}

// trainedCheckpoint builds a trained model and its serialized checkpoint.
func trainedCheckpoint(t *testing.T, seed uint64) (*MLP, []byte) {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	src := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, rng)
	xs := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	ys := [][]float64{{1, 0}, {0, 1}}
	src.Fit(xs, ys, FitOptions{Epochs: 10, Optimizer: NewAdam(0.01), RNG: rng})
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	return src, buf.Bytes()
}

// loadRejects asserts that loading data into a fresh model returns a
// *CheckpointError with the given reason and leaves the model untouched.
func loadRejects(t *testing.T, data []byte, wantReason string) {
	t.Helper()
	dst := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, mlmath.NewRNG(7))
	probe := []float64{0.3, -0.2, 0.7, 0.1}
	before := dst.Forward(probe)
	err := LoadCheckpoint(bytes.NewReader(data), dst)
	var cerr *CheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("expected *CheckpointError, got %v", err)
	}
	if cerr.Reason != wantReason {
		t.Fatalf("reason = %q, want %q (detail: %s)", cerr.Reason, wantReason, cerr.Detail)
	}
	after := dst.Forward(probe)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("rejected load mutated the model")
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	src, data := trainedCheckpoint(t, 11)
	dst := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, mlmath.NewRNG(99))
	if err := LoadCheckpoint(bytes.NewReader(data), dst); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2, 0.7, 0.1}
	a, b := src.Forward(probe), dst.Forward(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ after checkpoint round trip: %v vs %v", a, b)
		}
	}
}

func TestCheckpointRejectsTruncation(t *testing.T) {
	_, data := trainedCheckpoint(t, 12)
	// Cut the stream at several depths: inside the header, inside the
	// payload, and one byte short of complete. All must be caught.
	for _, n := range []int{0, 1, 10, len(data) / 3, 2 * len(data) / 3, len(data) - 1} {
		loadRejects(t, data[:n], CorruptTruncated)
	}
}

func TestCheckpointRejectsBitFlip(t *testing.T) {
	_, data := trainedCheckpoint(t, 13)
	// Flip one byte deep inside the payload region: gob framing survives,
	// so the checksum must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-10] ^= 0xff
	loadRejects(t, corrupt, CorruptChecksum)
}

func TestCheckpointRejectsArchMismatch(t *testing.T) {
	_, data := trainedCheckpoint(t, 14)
	dst := NewMLP([]int{4, 6, 2}, Tanh{}, Identity{}, mlmath.NewRNG(7))
	err := LoadCheckpoint(bytes.NewReader(data), dst)
	var cerr *CheckpointError
	if !errors.As(err, &cerr) || cerr.Reason != CorruptArchHash {
		t.Fatalf("expected arch-hash rejection, got %v", err)
	}
}

func TestCheckpointRejectsForeignStream(t *testing.T) {
	// A gob stream that is not a checkpoint at all: either the first decode
	// fails (truncated) or the header decodes with the wrong magic.
	var buf bytes.Buffer
	src := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, mlmath.NewRNG(15))
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, mlmath.NewRNG(7))
	err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst)
	var cerr *CheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("expected *CheckpointError, got %v", err)
	}
}

// envelope wraps payload in a checkpoint header with the right magic,
// checksum and length and the given arch hash, so only the payload can be
// wrong.
func envelope(t testing.TB, payload []byte, archHash string) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	hdr := ckptHeader{Magic: ckptMagic, ArchHash: archHash, Checksum: hex.EncodeToString(sum[:]), Length: int64(len(payload))}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRejectsUndecodablePayload: an intact envelope (right
// checksum, the model's arch hash) around a payload that does not decode
// into the model's tensors is a *CheckpointError too, and the model is
// left alone.
func TestCheckpointRejectsUndecodablePayload(t *testing.T) {
	arch := ArchHash(NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, mlmath.NewRNG(7)))
	var twoTensors, wrongWidths bytes.Buffer
	if err := SaveParams(&twoTensors, NewDense(4, 8, Tanh{}, mlmath.NewRNG(8))); err != nil {
		t.Fatal(err)
	}
	if err := SaveParams(&wrongWidths, NewMLP([]int{4, 9, 2}, Tanh{}, Identity{}, mlmath.NewRNG(9))); err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"two tensors":  twoTensors.Bytes(),
		"wrong widths": wrongWidths.Bytes(),
		"not gob":      []byte("not a gob stream"),
		"empty":        nil,
	} {
		t.Run(name, func(t *testing.T) { loadRejects(t, envelope(t, payload, arch), CorruptPayload) })
	}
}

// paramBits is every parameter value of m as raw bits, in Params order.
func paramBits(m Module) []uint64 {
	var bits []uint64
	for _, p := range m.Params() {
		for _, v := range p.Val {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// FuzzLoadCheckpoint feeds LoadCheckpoint raw streams (wrap false) and
// payloads that the harness wraps in an envelope with a correct checksum
// and the model's arch hash (wrap true), so fuzzed bytes also reach the
// payload decoder behind the checksum. Every input either loads or returns
// a *CheckpointError with the model bit-unchanged, and none panics. Seeds
// are in testdata/fuzz/FuzzLoadCheckpoint.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		dst := NewMLP([]int{2, 3, 1}, Tanh{}, Identity{}, mlmath.NewRNG(1))
		if wrap {
			data = envelope(t, data, ArchHash(dst))
		}
		before := paramBits(dst)
		err := LoadCheckpoint(bytes.NewReader(data), dst)
		if err == nil {
			return
		}
		cerr, ok := err.(*CheckpointError)
		if !ok {
			t.Fatalf("rejection is %T, not *CheckpointError: %v", err, err)
		}
		if !slices.Equal(before, paramBits(dst)) {
			t.Fatalf("rejected load (%s) mutated the model", cerr.Reason)
		}
	})
}

func TestArchHashDistinguishesArchitectures(t *testing.T) {
	rng := mlmath.NewRNG(16)
	a := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, rng)
	b := NewMLP([]int{4, 8, 2}, Tanh{}, Identity{}, rng)
	c := NewMLP([]int{4, 9, 2}, Tanh{}, Identity{}, rng)
	if ArchHash(a) != ArchHash(b) {
		t.Error("identical architectures hash differently")
	}
	if ArchHash(a) == ArchHash(c) {
		t.Error("different architectures share a hash")
	}
}
