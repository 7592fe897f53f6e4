package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const testMagic = "TESTMAGC"

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xa5}, 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, testMagic, 3, p); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeFrame(&buf, testMagic, 3)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestDecodeFrameTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, testMagic, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), frame...)
		b[0] ^= 0xff
		_, err := DecodeFrame(bytes.NewReader(b), testMagic, 3)
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		_, err := DecodeFrame(bytes.NewReader(frame), testMagic, 4)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		_, err := DecodeFrame(bytes.NewReader(frame[:5]), testMagic, 3)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		_, err := DecodeFrame(bytes.NewReader(frame[:len(frame)-3]), testMagic, 3)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("flipped-payload-bit", func(t *testing.T) {
		b := append([]byte(nil), frame...)
		b[len(b)-1] ^= 0x01
		_, err := DecodeFrame(bytes.NewReader(b), testMagic, 3)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("absurd-length", func(t *testing.T) {
		b := append([]byte(nil), frame...)
		for i := MagicLen + 4; i < MagicLen+12; i++ {
			b[i] = 0xff
		}
		_, err := DecodeFrame(bytes.NewReader(b), testMagic, 3)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("format-error-type", func(t *testing.T) {
		_, err := DecodeFrame(bytes.NewReader(nil), testMagic, 3)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("got %T, want *FormatError", err)
		}
		if fe.Magic != testMagic {
			t.Fatalf("FormatError.Magic = %q", fe.Magic)
		}
	})
}

func TestEncodeFrameRejectsBadMagicLength(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, "short", 1, nil); err == nil {
		t.Fatal("want error for 5-byte magic")
	}
	if _, err := DecodeFrame(&buf, "short", 1); err == nil {
		t.Fatal("want error for 5-byte magic")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2-longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-longer" {
		t.Fatalf("content = %q", got)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1 (temp files left behind?)", len(ents))
	}
}

// TestWriteFileAtomicCleansUpFailedRename: a write over an existing
// directory fails at the rename, as it does for root too. The error names the
// path, the temp file is removed, and the directory is left as it was.
func TestWriteFileAtomicCleansUpFailedRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	inside := filepath.Join(path, "kept")
	if err := os.WriteFile(inside, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, []byte("v1"), 0o644)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("writing over a directory: error %v, want one naming %s", err, path)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "*"+tempInfix+"*")); len(temps) > 0 {
		t.Fatalf("temp files left behind: %v", temps)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("the directory is gone or replaced: %v", err)
	}
	if got, err := os.ReadFile(inside); err != nil || string(got) != "kept" {
		t.Fatalf("the directory's content changed: %q, %v", got, err)
	}
}

// TestRemoveTemps: only the temp files of the named path go; the path, and
// another path's temp file, stay.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	names := []string{"a.ckpt", "a.ckpt.tmp-1", "a.ckpt.tmp-22", "b.ckpt.tmp-1"}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveTemps(filepath.Join(dir, "a.ckpt")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if want := []string{"a.ckpt", "b.ckpt.tmp-1"}; !slices.Equal(left, want) {
		t.Fatalf("left %v, want %v", left, want)
	}
}
