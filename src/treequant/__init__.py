"""treequant: recommenders whose ID embeddings learn a category tree.

A cascade of learnable codebooks quantizes each user/item embedding into a
fine-to-coarse path of code indices.  The chosen codes feed back into the
recommendation objective through a weighted residual, the quantizers train
jointly with the recommender via straight-through gradients, and the frozen
assignments export as an explicit category tree.
"""

from .config import TrainConfig, config_from_dict, load_config
from .core import (Adam, Parameter, bce_with_logits_batch, mlp_apply, mlp_backward,
                   softmax_xent_batch)
from .data import (InteractionColumns, SplitDataset, Vocabulary,
                   leave_one_out, load_interactions, load_lists,
                   partition_lists, preprocess_lists, sample_negatives,
                   split_list)
from .metrics import (MetricReport, evaluate_completion, evaluate_ranking,
                      hr_at_k, ndcg_at_k)
from .models import (CfModel, CtrModel, EmbeddingTable, SeqModel, cf_bpr_step,
                     ctr_step, seq_step)
from .quantizer import (CascadedQuantizer, CategoryTree, codebook_utilization,
                        extract_tree, label_nmi, make_quantizer, quantize_batch,
                        ste_backward_batch)
from .rng import SeededRng, rng_normal_init
from .train import build_model, model_from_checkpoint, run_evaluate, run_train

__version__ = "0.1.0"
