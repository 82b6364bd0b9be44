package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
)

// SaveParams writes a module's parameter values to w (gob-encoded). The
// module's architecture is not serialized: loading requires constructing an
// identical architecture first, then calling LoadParams — the usual
// checkpoint workflow for the small models in this repository.
func SaveParams(w io.Writer, m Module) error {
	params := m.Params()
	vals := make([][]float64, len(params))
	for i, p := range params {
		vals[i] = p.Val
	}
	if err := gob.NewEncoder(w).Encode(vals); err != nil {
		return fmt.Errorf("nn: encoding parameters: %w", err)
	}
	return nil
}

// LoadParams reads parameter values written by SaveParams into m. It errors
// when the stored shapes do not match m's architecture.
func LoadParams(r io.Reader, m Module) error {
	var vals [][]float64
	if err := gob.NewDecoder(r).Decode(&vals); err != nil {
		return fmt.Errorf("nn: decoding parameters: %w", err)
	}
	params := m.Params()
	if len(vals) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d tensors, model has %d", len(vals), len(params))
	}
	for i, p := range params {
		if len(vals[i]) != len(p.Val) {
			return fmt.Errorf("nn: tensor %d has %d values, model expects %d", i, len(vals[i]), len(p.Val))
		}
	}
	for i, p := range params {
		copy(p.Val, vals[i])
	}
	return nil
}

// The checkpoint format wraps the raw SaveParams payload in a validated
// envelope, so a model-lifecycle layer (internal/modelsvc) can refuse to
// deploy a checkpoint that was truncated, bit-flipped on disk, or written by
// a model with a different architecture:
//
//	gob(ckptHeader{Magic, ArchHash, Checksum, Length})
//	gob([]byte payload)            // the SaveParams bytes
//
// Both messages come from one gob stream, so a reader cannot desynchronize,
// and any truncation surfaces as a decode error.

// ckptMagic identifies checkpoint streams; a version bump means a format
// change.
const ckptMagic = "ML4DBCKPT1"

type ckptHeader struct {
	Magic    string
	ArchHash string
	Checksum string // sha256 hex of the payload bytes
	Length   int64  // payload byte count
}

// Reasons a checkpoint load can be rejected, carried by CheckpointError.
const (
	CorruptMagic     = "magic"     // stream does not start with a checkpoint header
	CorruptTruncated = "truncated" // stream ends (or breaks) before the declared payload
	CorruptChecksum  = "checksum"  // payload bytes do not match the recorded checksum
	CorruptArchHash  = "arch-hash" // checkpoint was written by a different architecture
	CorruptPayload   = "payload"   // payload does not decode into the model's tensors
)

// CheckpointError is the typed rejection returned by LoadCheckpoint: the
// Reason distinguishes corruption modes (magic, truncated, checksum,
// payload) from an architecture mismatch (arch-hash), and Detail carries the
// specifics. The target model is never mutated when a CheckpointError is
// returned.
type CheckpointError struct {
	Reason string
	Detail string
}

// Error implements error.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("nn: checkpoint rejected (%s): %s", e.Reason, e.Detail)
}

// ArchHash returns a short hex digest of the module's architecture — the
// tensor count and every tensor's length. Two modules with the same hash can
// exchange checkpoints; the hash is stored in the checkpoint header and in
// registry manifests so a mismatched load is rejected before any parameter
// is touched.
func ArchHash(m Module) string {
	params := m.Params()
	h := sha256.New()
	fmt.Fprintf(h, "tensors=%d", len(params))
	for _, p := range params {
		fmt.Fprintf(h, ",%d", len(p.Val))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// SaveCheckpoint writes m's parameters as a validated checkpoint: the
// SaveParams payload prefixed with a header holding the architecture hash,
// the payload checksum, and the payload length.
func SaveCheckpoint(w io.Writer, m Module) error {
	var buf bytes.Buffer
	if err := SaveParams(&buf, m); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	enc := gob.NewEncoder(w)
	hdr := ckptHeader{
		Magic:    ckptMagic,
		ArchHash: ArchHash(m),
		Checksum: hex.EncodeToString(sum[:]),
		Length:   int64(buf.Len()),
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("nn: encoding checkpoint header: %w", err)
	}
	if err := enc.Encode(buf.Bytes()); err != nil {
		return fmt.Errorf("nn: encoding checkpoint payload: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint into m,
// rejecting truncated streams, checksum mismatches, architecture mismatches
// and payloads that do not decode into m's tensors with a *CheckpointError
// before any parameter of m is mutated.
func LoadCheckpoint(r io.Reader, m Module) error {
	dec := gob.NewDecoder(r)
	var hdr ckptHeader
	if err := dec.Decode(&hdr); err != nil {
		return &CheckpointError{Reason: CorruptTruncated, Detail: fmt.Sprintf("reading header: %v", err)}
	}
	if hdr.Magic != ckptMagic {
		return &CheckpointError{Reason: CorruptMagic, Detail: fmt.Sprintf("got %q, want %q", hdr.Magic, ckptMagic)}
	}
	var payload []byte
	if err := dec.Decode(&payload); err != nil {
		return &CheckpointError{Reason: CorruptTruncated, Detail: fmt.Sprintf("reading payload: %v", err)}
	}
	if int64(len(payload)) != hdr.Length {
		return &CheckpointError{Reason: CorruptTruncated,
			Detail: fmt.Sprintf("payload is %d bytes, header declares %d", len(payload), hdr.Length)}
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != hdr.Checksum {
		return &CheckpointError{Reason: CorruptChecksum,
			Detail: fmt.Sprintf("payload sha256 %s, header declares %s", got, hdr.Checksum)}
	}
	if got := ArchHash(m); got != hdr.ArchHash {
		return &CheckpointError{Reason: CorruptArchHash,
			Detail: fmt.Sprintf("model architecture %s, checkpoint written by %s", got, hdr.ArchHash)}
	}
	if err := LoadParams(bytes.NewReader(payload), m); err != nil {
		return &CheckpointError{Reason: CorruptPayload, Detail: err.Error()}
	}
	return nil
}
