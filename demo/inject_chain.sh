#!/bin/sh
# Compile the CPU description, apply every `hm inject` of
# data/inject_chain.txt in order, then print the sha256 of the final image,
# of `hm rm` stdout and of `hm affinity` stdout (both with CPU.C3 under
# maintenance), one per line. Run after `pip install -e .`;
# tests/golden.py pins the three digests (`CHAIN`).
#
#     sh demo/inject_chain.sh [DIR]
#
# With DIR (an existing directory) the image and sidecar stay there as
# DIR/cpu.shm and DIR/cpu.sym; without it they go to a temporary directory
# that is removed on exit.
set -eu

here=$(dirname "$0")
if [ $# -gt 0 ]; then
    work=$1
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

hm compile "$here/data/cpu.xml" -o "$work/cpu.shm" --sym "$work/cpu.sym" \
    > /dev/null
grep -v '^#' "$here/data/inject_chain.txt" | while read -r options; do
    # shellcheck disable=SC2086  # one word per option
    hm inject "$work/cpu.shm" $options > /dev/null
done
sha256sum "$work/cpu.shm" | cut -d ' ' -f 1
hm rm "$work/cpu.shm" --sym "$work/cpu.sym" --maintenance CPU.C3 \
    | sha256sum | cut -d ' ' -f 1
hm affinity "$work/cpu.shm" --tasks "$here/data/tasks.txt" \
    --sym "$work/cpu.sym" --maintenance CPU.C3 | sha256sum | cut -d ' ' -f 1
