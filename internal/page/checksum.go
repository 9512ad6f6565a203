package page

import "hash/crc32"

// Page integrity checking. Storage computes a CRC32C (Castagnoli, the
// polynomial with hardware support on both x86 and ARM) over the full page
// image at encode time; the scan path carries it alongside the page so that
// any layer — the side-path splitter, the network client — can detect a
// corrupted image without trusting the layer before it. The checksum is
// deliberately kept out of the 8 KiB image itself: the wire format of the
// rows is unchanged, and a page that was corrupted before the checksum was
// taken is indistinguishable from valid data, exactly as in a real DBMS.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a full page image.
func Checksum(buf []byte) uint32 {
	return crc32.Checksum(buf, castagnoli)
}

// Checksum returns the CRC32C of the page's current image.
func (p *Page) Checksum() uint32 {
	return Checksum(p.buf)
}
