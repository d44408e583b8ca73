package dataset

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// backends are the two read paths a segment catalog can be opened
// with: mmap where available, and plain ReadAt.
var backends = []struct {
	name string
	opts OpenOptions
}{
	{"mmap", OpenOptions{}},
	{"readat", OpenOptions{ForceReadAt: true}},
}

// openMustReject opens path on every backend and requires the open to
// fail with ErrCorruptSegment.
func openMustReject(t *testing.T, path string) {
	t.Helper()
	for _, b := range backends {
		cat, err := OpenCatalogFile(path, b.opts)
		if err == nil {
			cat.Close()
			t.Fatalf("%s: open succeeded on a crafted footer", b.name)
		}
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("%s: error is not ErrCorruptSegment: %v", b.name, err)
		}
	}
}

// TestFooterBlobOverflowRejected: a blob whose offset plus length
// overflows int64 must fail the open's bounds check. A wrapped sum
// would pass it and the first decode would slice out of range.
func TestFooterBlobOverflowRejected(t *testing.T) {
	mem := tinyCatalog(t, 23)
	mutations := []struct {
		name   string
		mutate func(*segFooter)
	}{
		{"max len", func(ft *segFooter) {
			ft.Tables[0].Fields[0].Segs[0].Len = math.MaxInt64
		}},
		{"max off", func(ft *segFooter) {
			ft.Tables[0].Fields[0].Segs[0].Off = math.MaxInt64 - 8
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "o.vseg")
			if _, err := WriteCatalogFile(path, mem); err != nil {
				t.Fatal(err)
			}
			rewriteFooter(t, path, m.mutate)
			openMustReject(t, path)
		})
	}
}

// TestFooterNegativeRowsRejected: a negative table row count describes
// zero segments, so it would pass the segment-count check and surface
// as NumRows() < 0.
func TestFooterNegativeRowsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "n.vseg")
	if _, err := WriteCatalogFile(path, tinyCatalog(t, 23)); err != nil {
		t.Fatal(err)
	}
	rewriteFooter(t, path, func(ft *segFooter) {
		ft.Tables[0].Rows = -5
		for i := range ft.Tables[0].Fields {
			ft.Tables[0].Fields[i].Segs = nil
		}
	})
	openMustReject(t, path)
}

// fuzzCatalog covers every column kind across two segments, the last
// one partial, so crafted footers can swap, resize and retype blobs.
func fuzzCatalog(t testing.TB) *Catalog {
	tbl, err := NewTable("t", Schema{
		{Name: "f", Kind: KindFloat},
		{Name: "i", Kind: KindInt},
		{Name: "ts", Kind: KindTime},
		{Name: "b", Kind: KindBool},
		{Name: "s", Kind: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for r := 0; r < SegmentSize+9; r++ {
		f := Float(float64(r) * 0.5)
		if r%5 == 0 {
			f = Null(KindFloat)
		}
		err := tbl.AppendRow(f, Int(int64(r/3)), Time(base.Add(time.Duration(r)*time.Minute)),
			Bool(r%2 == 0), Str(string(rune('a'+r%7))))
		if err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// FuzzCatalogFooter feeds crafted footers to OpenCatalogFile. Each
// input replaces the footer of a small v3 file and is framed with a
// valid CRC and tail, so it gets past the integrity check. The open
// must either fail with ErrCorruptSegment or return a catalog that
// scans fully on both backends without panicking and reports no
// negative row count.
func FuzzCatalogFooter(f *testing.F) {
	src := filepath.Join(f.TempDir(), "seed.vseg")
	if _, err := WriteCatalogFile(src, fuzzCatalog(f)); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		f.Fatal(err)
	}
	size := len(data)
	ftLen := int(binary.LittleEndian.Uint64(data[size-16 : size-8]))
	blobs := data[:size-20-ftLen]
	f.Add(append([]byte{}, data[len(blobs):size-20]...))
	f.Add([]byte(`{"tables":[{"name":"t","rows":-5,"fields":[]}]}`))
	f.Add([]byte(`{"tables":[{"name":"t","rows":3,"fields":[{"name":"f","kind":0,"segs":[{"off":8,"len":9223372036854775807}]}]}]}`))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, footer []byte) {
		if len(footer) == 0 {
			return
		}
		path := filepath.Join(dir, "fuzz.vseg")
		out := append(append([]byte{}, blobs...), footer...)
		tail := make([]byte, 20)
		binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(footer, castagnoli))
		binary.LittleEndian.PutUint64(tail[4:12], uint64(len(footer)))
		copy(tail[12:], segEndMagic3)
		if err := os.WriteFile(path, append(out, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			cat, err := OpenCatalogFile(path, b.opts)
			if err != nil {
				if !errors.Is(err, ErrCorruptSegment) {
					t.Fatalf("%s: error is not ErrCorruptSegment: %v", b.name, err)
				}
				continue
			}
			for _, name := range cat.TableNames() {
				tbl, err := cat.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				n := tbl.NumRows()
				if n < 0 {
					t.Fatalf("%s: table %q opened with %d rows", b.name, name, n)
				}
				// One row per segment decodes every blob.
				for r := 0; r < n; r += SegmentSize {
					tbl.Row(r)
				}
				if n > 0 {
					tbl.Row(n - 1)
				}
			}
			// A blob that fails to decode is re-read on every access, so
			// the cell-by-cell scan runs only on catalogs that stayed
			// healthy.
			if cat.Corrupt() == nil {
				scanAll(t, cat)
			}
			cat.Close()
		}
	})
}
