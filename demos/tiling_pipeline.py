"""
A full pipeline run on one large image
======================================

Writes an aerial-style label file, parses it, tiles the scene into
overlapping windows, encodes one tile, decodes it back, and scores the
result, which is the same chain the command-line tool drives.
"""

import tempfile
from pathlib import Path

from midlines.decoder import decode
from midlines.encoder import encode_image
from midlines.evaluation import evaluate
from midlines.ingest import TileSpec, parse_dota, tile_image

LABELS = """\
imagesource:demo
gsd:0.5
640 380 760 380 760 440 640 440 plane 0
1012 1008 1112 1008 1112 1048 1012 1048 ship 0
1300 240 1390 260 1378 314 1288 294 ship 0
200 1200 280 1200 280 1240 200 1240 large-vehicle 1
"""

with tempfile.TemporaryDirectory(prefix="pipeline_") as workdir:
    label_file = Path(workdir) / "P0001.txt"
    label_file.write_text(LABELS)
    image, warnings = parse_dota(
        label_file.read_text(), image_id="P0001", width=1400, height=1400
    )
print(f"parsed {len(image.objects)} objects from {label_file.name}, "
      f"{len(warnings)} warnings")

tiles = tile_image(image, TileSpec(window=800, overlap=0.25))
print(f"tiled 1400x1400 into {len(tiles)} windows of 800, step 600:")
for tile in tiles:
    print(f"  {tile.image_id:<16} {len(tile.objects)} objects")

# An object belongs to every window whose half-open extent contains its
# centroid, so objects in the overlap band can appear in two tiles. Pick
# the busiest window and run it through the map stage.
tile = max(tiles, key=lambda t: len(t.objects))
print(f"\nencoding {tile.image_id}")
maps = encode_image(
    tile.objects, tile.width, tile.height,
    num_classes=len(tile.class_names),
)
# Ground truth (tile.objects, a Boxes table) and detections (a Detections
# table) both go to evaluate as they are, column by column.
dets = decode(maps)
report = evaluate(dets, tile.objects, class_names=tile.class_names)
print(f"decoded {len(dets)} detections, mAP over present classes "
      f"{report.map_score:.4f}")

# The command-line equivalent of everything above:
#   midlines tile --input <labels-dir> --out tiles/ --window 800 --overlap 0.25
#   midlines encode --gt tiles/ --out maps/
#   midlines decode --maps maps/ --out dets.json
#   midlines eval --gt tiles/ --dets dets.json
