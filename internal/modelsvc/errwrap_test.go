package modelsvc

import (
	"errors"
	"fmt"
	"testing"
)

// The registry error contracts: sentinels survive
// fmt.Errorf("%w") wrapping under errors.Is, and the typed rejections are
// recoverable with errors.As so callers can branch on their fields.
func TestRegistryErrorWrapping(t *testing.T) {
	if !errors.Is(fmt.Errorf("load resnet v3: %w", ErrNotFound), ErrNotFound) {
		t.Error("wrapped ErrNotFound does not match under errors.Is")
	}

	ie := &IntegrityError{Path: "m/v000001.ckpt", Want: "aa", Got: "bb"}
	wrapped := fmt.Errorf("rollout candidate: %w", ie)
	var gotIE *IntegrityError
	if !errors.As(wrapped, &gotIE) {
		t.Fatal("errors.As failed to recover *IntegrityError through wrapping")
	}
	if gotIE.Path != "m/v000001.ckpt" || gotIE.Want != "aa" || gotIE.Got != "bb" {
		t.Errorf("recovered %+v, want original fields", gotIE)
	}

	ae := &ArchMismatchError{Name: "m", Version: 2, Want: "mlp[4,8,1]", Got: "mlp[4,4,1]"}
	var gotAE *ArchMismatchError
	if !errors.As(fmt.Errorf("serve: %w", ae), &gotAE) {
		t.Fatal("errors.As failed to recover *ArchMismatchError through wrapping")
	}
	if gotAE.Version != 2 || gotAE.Want != "mlp[4,8,1]" || gotAE.Got != "mlp[4,4,1]" {
		t.Errorf("recovered %+v, want original fields", gotAE)
	}

	// The two typed rejections are distinct: As must not cross-match.
	var wrongType *IntegrityError
	if errors.As(fmt.Errorf("serve: %w", ae), &wrongType) {
		t.Error("*ArchMismatchError matched as *IntegrityError")
	}
}
