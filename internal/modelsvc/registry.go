package modelsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
)

// Manifest describes one published model version. It is stored next to the
// checkpoint payload as JSON and returned by every registry operation, so a
// caller can audit what it is about to deploy before deploying it.
type Manifest struct {
	// Name is the model line ("cardest-mlp", "bao-arms", ...).
	Name string `json:"name"`
	// Version is the 1-based, strictly increasing version within the line.
	Version int `json:"version"`
	// ArchHash identifies the model architecture that wrote the payload
	// (nn.ArchHash for nn modules; component-defined for others). Loads
	// through the typed helpers reject a mismatch.
	ArchHash string `json:"arch_hash"`
	// Checksum is the sha256 hex digest of the payload bytes; Load verifies
	// it before returning the payload.
	Checksum string `json:"checksum"`
	// Bytes is the payload size.
	Bytes int64 `json:"bytes"`
	// Meta carries free-form training metadata (trigger, window error,
	// epochs, ...).
	Meta map[string]string `json:"meta,omitempty"`
	// CreatedUnixNano is the publication instant from the registry's
	// injected clock.
	CreatedUnixNano int64 `json:"created_unix_nano"`
}

// ErrNotFound is returned when a model line or version does not exist.
var ErrNotFound = errors.New("modelsvc: model version not found")

// IntegrityError is the typed rejection for a checkpoint whose bytes on disk
// do not match its manifest: the payload was truncated or corrupted after
// publication. A model that fails integrity verification is never returned.
type IntegrityError struct {
	Path string
	Want string
	Got  string
}

// Error implements error.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("modelsvc: integrity check failed for %s: checksum %s, manifest declares %s", e.Path, e.Got, e.Want)
}

// ArchMismatchError is the typed rejection for loading a checkpoint into a
// model with a different architecture than the one that wrote it.
type ArchMismatchError struct {
	Name    string
	Version int
	Want    string
	Got     string
}

// Error implements error.
func (e *ArchMismatchError) Error() string {
	return fmt.Sprintf("modelsvc: %s v%d was written by architecture %s, loading model is %s",
		e.Name, e.Version, e.Want, e.Got)
}

// Registry is a versioned on-disk model store. Checkpoints live under
// dir/<name>/v<NNNNNN>.ckpt with a JSON manifest alongside; Publish assigns
// the next version atomically (temp file + rename) and Load verifies the
// payload checksum against the manifest before returning it. All methods are
// safe for concurrent use within one process.
type Registry struct {
	// Clock stamps Manifest.CreatedUnixNano; nil means the system clock.
	// Inject a ManualClock to make manifests byte-reproducible.
	Clock mlmath.Clock

	dir string
	mu  sync.Mutex
}

// OpenRegistry opens (creating if needed) a registry rooted at dir.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelsvc: opening registry: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// validName rejects path metacharacters so a model name can never escape the
// registry root.
func validName(name string) error {
	if name == "" {
		return errors.New("modelsvc: empty model name")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("modelsvc: invalid model name %q (allowed: letters, digits, - _ .)", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("modelsvc: invalid model name %q", name)
	}
	return nil
}

func (r *Registry) ckptPath(name string, version int) string {
	return filepath.Join(r.dir, name, fmt.Sprintf("v%06d.ckpt", version))
}

func (r *Registry) manifestPath(name string, version int) string {
	return filepath.Join(r.dir, name, fmt.Sprintf("v%06d.json", version))
}

// Publish serializes one model version: write streams the payload, which is
// checksummed and stored with a manifest carrying archHash and meta. The
// version number is the line's next; the checkpoint and manifest are written
// via temp files and renamed, so a crash never leaves a half-written version
// visible (a version without a manifest is ignored by List/Load).
func (r *Registry) Publish(name, archHash string, meta map[string]string, write func(w io.Writer) error) (Manifest, error) {
	if err := validName(name); err != nil {
		return Manifest{}, err
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return Manifest{}, fmt.Errorf("modelsvc: serializing %s: %w", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())

	r.mu.Lock()
	defer r.mu.Unlock()
	versions, err := r.versionsLocked(name)
	if err != nil {
		return Manifest{}, err
	}
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	man := Manifest{
		Name:            name,
		Version:         next,
		ArchHash:        archHash,
		Checksum:        hex.EncodeToString(sum[:]),
		Bytes:           int64(buf.Len()),
		Meta:            meta,
		CreatedUnixNano: mlmath.ClockOrSystem(r.Clock).Now().UnixNano(),
	}
	dir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("modelsvc: publishing %s: %w", name, err)
	}
	if err := writeAtomic(r.ckptPath(name, next), buf.Bytes()); err != nil {
		return Manifest{}, err
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("modelsvc: encoding manifest: %w", err)
	}
	if err := writeAtomic(r.manifestPath(name, next), append(manData, '\n')); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// writeAtomic writes data to path via a temp file in the same directory plus
// a rename, so readers never observe a partial file.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("modelsvc: writing %s: %w", path, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("modelsvc: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("modelsvc: writing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("modelsvc: writing %s: %w", path, err)
	}
	return nil
}

// versionsLocked lists the published version numbers of name in ascending
// order. A missing line directory is an empty list, not an error.
func (r *Registry) versionsLocked(name string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(r.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("modelsvc: listing %s: %w", name, err)
	}
	var versions []int
	for _, e := range entries {
		var v int
		if _, err := fmt.Sscanf(e.Name(), "v%06d.json", &v); err == nil && e.Name() == fmt.Sprintf("v%06d.json", v) {
			versions = append(versions, v)
		}
	}
	sort.Ints(versions)
	return versions, nil
}

// List returns the manifests of every published version of name, ascending.
func (r *Registry) List(name string) ([]Manifest, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions, err := r.versionsLocked(name)
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(versions))
	for _, v := range versions {
		man, err := r.readManifestLocked(name, v)
		if err != nil {
			return nil, err
		}
		out = append(out, man)
	}
	return out, nil
}

func (r *Registry) readManifestLocked(name string, version int) (Manifest, error) {
	data, err := os.ReadFile(r.manifestPath(name, version))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, fmt.Errorf("%w: %s v%d", ErrNotFound, name, version)
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("modelsvc: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("modelsvc: decoding manifest %s v%d: %w", name, version, err)
	}
	return man, nil
}

// Load returns the verified payload and manifest of the given version
// (version 0 means latest). The payload checksum is verified against the
// manifest; a mismatch returns a *IntegrityError and no payload.
func (r *Registry) Load(name string, version int) ([]byte, Manifest, error) {
	if err := validName(name); err != nil {
		return nil, Manifest{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if version == 0 {
		versions, err := r.versionsLocked(name)
		if err != nil {
			return nil, Manifest{}, err
		}
		if len(versions) == 0 {
			return nil, Manifest{}, fmt.Errorf("%w: %s (no versions)", ErrNotFound, name)
		}
		version = versions[len(versions)-1]
	}
	man, err := r.readManifestLocked(name, version)
	if err != nil {
		return nil, Manifest{}, err
	}
	path := r.ckptPath(name, version)
	payload, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, Manifest{}, fmt.Errorf("%w: %s v%d (manifest without payload)", ErrNotFound, name, version)
	}
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("modelsvc: reading checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != man.Checksum {
		return nil, Manifest{}, &IntegrityError{Path: path, Want: man.Checksum, Got: got}
	}
	return payload, man, nil
}

// PublishModule publishes an nn.Module checkpoint (nn.SaveCheckpoint
// envelope: its own arch hash and checksum, double-verified on load) with
// nn.ArchHash as the manifest architecture hash.
func PublishModule(reg *Registry, name string, m nn.Module, meta map[string]string) (Manifest, error) {
	return reg.Publish(name, nn.ArchHash(m), meta, func(w io.Writer) error {
		return nn.SaveCheckpoint(w, m)
	})
}

// LoadModule loads a published nn.Module checkpoint (version 0 = latest)
// into m, rejecting architecture mismatches with *ArchMismatchError before
// touching m, and payload corruption via both the manifest checksum and the
// checkpoint envelope's own checksum.
func LoadModule(reg *Registry, name string, version int, m nn.Module) (Manifest, error) {
	payload, man, err := reg.Load(name, version)
	if err != nil {
		return Manifest{}, err
	}
	if got := nn.ArchHash(m); got != man.ArchHash {
		return Manifest{}, &ArchMismatchError{Name: man.Name, Version: man.Version, Want: man.ArchHash, Got: got}
	}
	if err := nn.LoadCheckpoint(bytes.NewReader(payload), m); err != nil {
		return Manifest{}, err
	}
	return man, nil
}
