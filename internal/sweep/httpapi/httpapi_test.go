package httpapi

import (
	"net/http/httptest"
	"testing"

	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

func TestETagMatch(t *testing.T) {
	const etag = `"abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{``, false},
		{`"abc"`, true},
		{`W/"abc"`, true},
		{`*`, true},
		{` * `, true},
		{`"x", W/"abc"`, true},
		{`"x",W/"y" , "abc"`, true},
		{`"x", "y"`, false},
		{`W/"x"`, false},
		{`abc`, false},
		{`"abc`, false},
		{`w/"abc"`, false}, // the weak prefix is case-sensitive
	}
	for _, c := range cases {
		if got := ETagMatch(c.header, etag); got != c.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", c.header, etag, got, c.want)
		}
	}
	// Every conditional /v1/scenario request at every tier matches, so
	// walking a list of tags, to its end or to a match, allocates nothing.
	for _, header := range []string{`"x",W/"y" , "abc"`, `"x", W/"y", "z"`} {
		if n := testing.AllocsPerRun(100, func() { ETagMatch(header, etag) }); n != 0 {
			t.Errorf("ETagMatch(%q) allocates %v times, want 0", header, n)
		}
	}
}

func TestAcceptsTLV(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{tlv.MediaType, true},
		{"Application/X-Sweep-TLV", true},
		{tlv.MediaType + ";q=0.9", true},
		{"  " + tlv.MediaType + " ; v=3", true},
		{"application/json;q=0.5, " + tlv.MediaType + ";q=0.9", true},
		{"*/*", false},
		{"application/*", false},
		{"application/x-ndjson", false},
		{"application/x-sweep-tlvx", false},
		{"application/x-sweep", false},
		{"text/plain; charset=" + tlv.MediaType, false},
	}
	for _, c := range cases {
		r := httptest.NewRequest("POST", "/v1/sweep", nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if got := Negotiate(r) == sweep.EncodingTLV; got != c.want {
			t.Errorf("Negotiate(Accept: %q) is TLV = %v, want %v", c.accept, got, c.want)
		}
	}
}

// TestNegotiateDoesNotAllocate: every /v1/scenario and /v1/sweep
// request at every tier negotiates, so reading the Accept header —
// one media type or a list walked to its end — allocates nothing.
func TestNegotiateDoesNotAllocate(t *testing.T) {
	for _, accept := range []string{
		tlv.MediaType,
		"application/json;q=0.5, text/plain, " + tlv.MediaType + ";q=0.9",
		"application/json;q=0.5, text/plain, */*",
	} {
		r := httptest.NewRequest("POST", "/v1/sweep", nil)
		r.Header.Set("Accept", accept)
		if n := testing.AllocsPerRun(100, func() { Negotiate(r) }); n != 0 {
			t.Errorf("Negotiate(Accept: %q) allocates %v times, want 0", accept, n)
		}
	}
}
