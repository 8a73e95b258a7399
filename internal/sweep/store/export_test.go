package store

// FormatTLV names the segment encoding in wire parameters and
// manifests. It is the only one a segment reference may carry.
const FormatTLV = formatTLV
