package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// treeDigest is the SHA-256 over every regular file under dir: its
// slash-separated relative path, its length and its bytes, in lexical
// path order.
func treeDigest(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// A digestStore remembers artifact digests across benchmark processes
// built from the same binary, so a campaign that stops reproducing
// between runs of one seed fails the output check. Entries live under
// the checkout's build directory, keyed by the binary's own hash.
type digestStore struct{ dir string }

func openDigestStore(root string) (*digestStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	dir := filepath.Join(root, "digests", hex.EncodeToString(h.Sum(nil))[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &digestStore{dir: dir}, nil
}

// check records digest under key on first sight and otherwise reports
// whether it matches the recorded one.
func (s *digestStore) check(key, digest string) (bool, error) {
	path := filepath.Join(s.dir, key)
	old, err := os.ReadFile(path)
	if err == nil {
		return string(old) == digest, nil
	}
	if !os.IsNotExist(err) {
		return false, err
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(digest), 0o644); err != nil {
		return false, err
	}
	return true, os.Rename(tmp, path)
}
