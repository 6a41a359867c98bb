#!/bin/sh
# cnvm_inspect must leave the pool it inspects byte for byte as it was,
# and `verify` must report allocator-header damage that a restart would
# heal in place. The kv_store example's first run writes a pool; this
# script adds 64 to the allocator header's bitmapBytes (at the heap
# region's offset + 16; the pool header's eighth word holds that
# offset), then runs both modes.
#
#   check_inspect_readonly.sh <kv_store> <cnvm_inspect> <pool path>
set -u
if [ $# -ne 3 ]; then
    echo "usage: $0 <kv_store> <cnvm_inspect> <pool path>" >&2
    exit 2
fi
kv_store=$1
inspect=$2
pool=$3
status=0
rm -f "$pool" "$pool.orig"
"$kv_store" "$pool" > /dev/null || exit 1
python3 - "$pool" <<'PY' || exit 1
import struct, sys
with open(sys.argv[1], "r+b") as f:
    f.seek(56)
    heap_off, = struct.unpack("<Q", f.read(8))
    f.seek(heap_off + 16)
    bitmap_bytes, = struct.unpack("<Q", f.read(8))
    f.seek(heap_off + 16)
    f.write(struct.pack("<Q", bitmap_bytes + 64))
PY
cp "$pool" "$pool.orig"
"$inspect" "$pool"
if ! cmp "$pool.orig" "$pool"; then
    echo "FAIL: cnvm_inspect changed the pool it inspected" >&2
    status=1
fi
"$inspect" verify "$pool"
if [ $? -ne 1 ]; then
    echo "FAIL: verify did not report the damaged allocator header" >&2
    status=1
fi
rm -f "$pool" "$pool.orig"
exit $status
