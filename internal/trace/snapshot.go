package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot framing: a four-byte magic, one version byte, then a gob
// payload. Gob (not JSON) because simulator state legitimately holds
// ±Inf floats — a fresh machine frontier is -Inf, a finalized one +Inf
// — which JSON cannot encode. The version byte belongs to the
// envelope so readers can reject incompatible payloads before
// decoding them.
//
// Framing versions 2 and above end with a 4-byte little-endian
// CRC32C footer over the gob payload, so a bit-flipped or torn
// checkpoint is rejected with a checksum error instead of being fed
// to gob. Version 1 files (written before the footer existed) have no
// checksum and are still readable.
const snapshotMagic = "QCSN"

// snapshotChecksummed is the first envelope version carrying the
// CRC32C footer.
const snapshotChecksummed = 2

// snapshotCRC is the footer polynomial (CRC32C, as in the journal's
// frame checksums).
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot frames payload as a versioned snapshot on w. For
// versions >= 2 the payload is followed by its CRC32C footer.
func WriteSnapshot(w io.Writer, version byte, payload any) error {
	if _, err := w.Write(append([]byte(snapshotMagic), version)); err != nil {
		return fmt.Errorf("trace: write snapshot header: %w", err)
	}
	if version < snapshotChecksummed {
		if err := gob.NewEncoder(w).Encode(payload); err != nil {
			return fmt.Errorf("trace: encode snapshot: %w", err)
		}
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("trace: encode snapshot: %w", err)
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], crc32.Checksum(buf.Bytes(), snapshotCRC))
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("trace: write snapshot payload: %w", err)
	}
	if _, err := w.Write(footer[:]); err != nil {
		return fmt.Errorf("trace: write snapshot checksum: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot from r into payload and returns the
// envelope's version byte. Callers own the version compatibility
// check; the codec validates the magic and, for versions >= 2, the
// payload checksum — corruption is reported as an error before gob
// ever sees the bytes.
func ReadSnapshot(r io.Reader, payload any) (byte, error) {
	hdr := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("trace: read snapshot header: %w", err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return 0, fmt.Errorf("trace: bad snapshot magic %q", hdr[:len(snapshotMagic)])
	}
	version := hdr[len(snapshotMagic)]
	if version < snapshotChecksummed {
		if err := gob.NewDecoder(r).Decode(payload); err != nil {
			return version, fmt.Errorf("trace: decode snapshot: %w", err)
		}
		return version, nil
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return version, fmt.Errorf("trace: read snapshot payload: %w", err)
	}
	if len(body) < 4 {
		return version, fmt.Errorf("trace: snapshot truncated before its checksum footer")
	}
	gobBytes, footer := body[:len(body)-4], body[len(body)-4:]
	want := binary.LittleEndian.Uint32(footer)
	if got := crc32.Checksum(gobBytes, snapshotCRC); got != want {
		return version, fmt.Errorf("trace: snapshot checksum mismatch (have %08x, want %08x): file is corrupt or torn", got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(gobBytes)).Decode(payload); err != nil {
		return version, fmt.Errorf("trace: decode snapshot: %w", err)
	}
	return version, nil
}
