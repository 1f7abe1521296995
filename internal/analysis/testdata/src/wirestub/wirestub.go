// Package wirestub stubs the wire append helpers for the poolalias
// fixtures. The declaring package is exempt from the analyzer (it owns
// the buffer protocol), so the fixture callers live in package
// poolalias.
package wirestub

func AppendEncode(dst []byte, v byte) []byte { return append(dst, v) }

func AppendLinkFrame(dst []byte, group uint64, links []string) ([]byte, error) {
	return append(dst, byte(group)), nil
}
