package chaos

import (
	"io"
	"io/fs"
	"os"
)

// FS is the slice of the filesystem the serving store runs on. The
// store never calls the os package directly; it goes through an FS so
// a chaos Injector can sit between it and the disk. OS() is the
// pass-through implementation used in production.
type FS interface {
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// CreateTemp creates a temp file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove removes one file or empty directory.
	Remove(name string) error
	// RemoveAll removes a tree.
	RemoveAll(path string) error
	// Open opens a file for reading.
	Open(name string) (File, error)
	// OpenFile is the generalised open (append mode for event logs).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)
}

// File is the open-file surface the store uses: sequential reads,
// appends and atomic-write temp files.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync commits the file's contents to stable storage.
	Sync() error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the pass-through FS backed by the os package.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }
